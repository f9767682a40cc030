"""One benchmark workload, run in its own single-threaded process.

``run.py`` starts this script with the BLAS thread variables set to 1 and
``src`` on the path, then prints the result file it writes. The script sets
up the workload's inputs from the seed, checks them, runs the whole pipeline
(pre-training stages 1 and 2, fine-tuning, query generation, evaluation) in
timed chunks through the program's public entry points, checks the outputs,
and writes one JSON result. With ``--trace 1`` it runs the chunks once
untraced and once with the span recorder installed, and reports per-layer
metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import datagen
import kgt.accel
import kgt.checkpoint
import kgt.cli
import kgt.errors
import kgt.evaluation
import kgt.graph
import kgt.queries
import kgt.sampling
import kgt.train
from kgt.model import Model, ModelConfig
from kgt.queries import TRAINABLE_TYPES, QueryType
from kgt.train import Stage, TrainConfig

# Errors the program raises for a failed operation; anything else is a defect
# in the benchmark and should crash the run.
PROGRAM_ERRORS = (kgt.errors.KgtError, FloatingPointError, ValueError, OSError)

# Mean wall seconds of one chunk of each phase on the machine the benchmark
# was written on (2 cores, Python 3.11, numpy 2.4, no numba), and the share of
# --seconds each phase gets. Chunk counts follow --seconds only, so for a given
# seed and --seconds the work done never depends on how fast the code is, and
# a rate (all of a phase's work over all of its chunks' wall time) compares the
# same work on both sides. Stage-1 steps vary most in cost, so stage 1 gets
# the largest share.
CHUNK_SECONDS = {"stage1": 1.4, "stage2": 0.31, "finetune": 3.4, "eval": 1.6, "pipeline": 8.0}
FB_SHARES = {"stage1": 0.62, "stage2": 0.08, "finetune": 0.18, "eval": 0.12}

# Set-up runs this often per run and setup_s is the median. On fb15k five
# repetitions spread no less over ten seeds than three (0.20 against 0.22): the
# spread comes from the machine's speed drifting between runs, not within one.
FB_SETUP_REPEATS = 3
TOY_SETUP_REPEATS = 5

STAGE1_STEPS, STAGE2_STEPS, PRETRAIN_BATCH = 1, 1, 32
FINETUNE_QUERIES = FINETUNE_BATCH = 128  # per trainable shape: one step per shape per chunk
EVAL_QUERIES = 12  # per shape and chunk
MAX_ANSWERS = 100  # generate_queries default
RANK_SAMPLE = 2  # queries per shape whose answers and ranks the benchmark recomputes
PAD_PROBE_BATCHES = 8  # stage-1 batches sampled to print the pad ratio

END_TO_END = (
    ("setup_s", "s"),
    ("setup_rss_mib", "MiB"),
    ("stage1.graphs_per_s", "1/s"),
    ("stage2.graphs_per_s", "1/s"),
    ("finetune.queries_per_s", "1/s"),
    ("stage1.loss", "nats"),
    ("stage2.loss", "nats"),
    ("finetune.loss", "nats"),
    ("pipeline_s", "s"),
)
# Measured and printed, but not end-to-end metrics: their speed swings most
# between runs on a shared machine, and a run cannot average that out (each
# run's eval chunks agree within a few percent). Over two ten-seed sets of the
# same code the fb15k query generation rate spread by 0.15 and then 0.48, and
# the evaluation rate by up to 0.18, which resampling puts over the largest
# bound (0.25) in 6 to 17% of ten-seed sets.
NOT_GATED = (("gen_queries.queries_per_s", "1/s"), ("eval.queries_per_s", "1/s"))
PHASE_RATES = {
    "stage1": "stage1.graphs_per_s",
    "stage2": "stage2.graphs_per_s",
    "finetune": "finetune.queries_per_s",
    "gen_queries": "gen_queries.queries_per_s",
    "eval": "eval.queries_per_s",
}

TOY_CONFIG = """\
seed = {seed}
model.hidden = 64
optimizer.lr = 1e-3
stage1.epochs = {epochs}
stage1.batch_size = {batch}
stage1.steps_per_epoch = {steps}
stage2.epochs = {epochs}
stage2.batch_size = {batch}
stage2.steps_per_epoch = {steps}
finetune.epochs = {finetune_epochs}
finetune.batch_size = {finetune_batch}
finetune.combos = {combos}
queries.train_count = {train}
queries.valid_count = {valid}
queries.test_count = {test}
"""
TOY_VALID_QUERIES = TOY_TEST_QUERIES = 10  # the 20 valid triples allow about 19 distinct 1p queries
TOY_TRAIN_QUERIES, TOY_EPOCHS, TOY_STEPS, TOY_FINETUNE_EPOCHS, TOY_FINETUNE_BATCH = 80, 2, 3, 2, 32
TOY_COMBOS = ((QueryType.P1,), (QueryType.P2, QueryType.I2))
# command, the phase its time counts toward, and the work it does
TOY_COMMANDS = (
    (("ingest", "--data", "{raw}"), None, 0),
    (("gen-queries",), "gen_queries", TOY_TRAIN_QUERIES * len(TRAINABLE_TYPES) + (TOY_VALID_QUERIES + TOY_TEST_QUERIES) * len(QueryType)),
    (("pretrain", "--stage", "1"), "stage1", TOY_EPOCHS * TOY_STEPS * PRETRAIN_BATCH),
    (("pretrain", "--stage", "2"), "stage2", TOY_EPOCHS * TOY_STEPS * PRETRAIN_BATCH),
    # multi-task fine-tuning, then one copy per combination; validation included
    (("finetune",), "finetune", TOY_FINETUNE_EPOCHS * TOY_TRAIN_QUERIES * (len(TRAINABLE_TYPES) + sum(map(len, TOY_COMBOS)))),
    (("evaluate", "--split", "valid", "--dump-ranks"), "eval", TOY_VALID_QUERIES * len(QueryType)),
    (("evaluate", "--split", "test"), "eval", TOY_TEST_QUERIES * len(QueryType)),
)


def chunks(seconds: float, phase: str, share: float = 1.0) -> int:
    return max(2, round(seconds * share / CHUNK_SECONDS[phase]))


@dataclass
class Timings:
    """Wall seconds and work done per chunk of each phase, and the peak RSS
    reached by the end of each phase (which phase set the peak)."""

    wall: dict[str, list[float]] = field(default_factory=dict)
    work: dict[str, list[int]] = field(default_factory=dict)
    peak_mib: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, wall: float, work: int) -> None:
        self.wall.setdefault(phase, []).append(wall)
        self.work.setdefault(phase, []).append(work)
        self.peak_mib[phase] = peak_mib()

    def rate(self, phase: str) -> float:
        """The phase's work over its wall time, summed over its chunks."""
        return sum(self.work[phase]) / sum(self.wall[phase])

    def seconds(self) -> float:
        """Wall time of all timed chunks."""
        return sum(sum(walls) for walls in self.wall.values())


def peak_mib() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed(recorder, phase: str):
    """Open the phase span when tracing; return a closer that gives the wall seconds."""
    span = recorder.begin(f"phase.{phase}") if recorder else None
    t0 = time.perf_counter()

    def close() -> float:
        wall = time.perf_counter() - t0
        if recorder:
            recorder.end(span)
        return wall

    return close


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rank_lines(rows: list[dict]) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


@dataclass
class Outcome:
    """What a run attempted, what failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)

    def check(self, ok: bool, message: str, count: int = 0) -> None:
        """A failed output check marks the run incorrect; ``count`` operations also fail."""
        if not ok:
            self.failed += count
            self.problems.append(message)


def header(root: Path) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba_active": bool(kgt.accel.NUMBA_ENABLED),
        "src_lines": src_lines,
    }


# -- checks ------------------------------------------------------------------


def check_split(split, entities: int, relations: int, sizes: tuple[int, int, int], outcome: Outcome) -> None:
    """Counts and nesting of a loaded dataset: train within valid within test."""
    outcome.check(split.entity_count == entities, f"loaded {split.entity_count} entities, expected {entities}")
    outcome.check(split.relation_count == relations, f"loaded {split.relation_count} relations, expected {relations}")
    train, valid, test = (set(g.triples) for g in (split.train, split.valid, split.test))
    outcome.check(train <= valid <= test, "loaded splits are not nested train within valid within test")
    expected = (sizes[0], sizes[0] + sizes[1], sum(sizes))
    outcome.check((len(train), len(valid), len(test)) == expected, f"loaded split sizes differ from {expected}")


class Grounder:
    """Answer sets computed by the benchmark from the raw increments.

    Relation projections over dictionaries built here, with an edge visible on
    a split when its increment is at or before that split.
    """

    def __init__(self, parts: dict[str, list[tuple[int, int, int]]]):
        self.edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for tag, name in enumerate(("train", "valid", "test")):
            for h, r, t in parts[name]:
                self.edges.setdefault((h, r), []).append((t, tag))

    def project(self, sources: set[int], relation: int, tag: int) -> set[int]:
        return {t for s in sources for t, edge_tag in self.edges.get((s, relation), ()) if edge_tag <= tag}

    def answers(self, query, tag: int) -> set[int]:
        a, r, qt = query.anchors, query.relations, query.query_type
        one = lambda i, j: self.project({a[i]}, r[j], tag)  # noqa: E731
        if qt is QueryType.P1:
            return one(0, 0)
        if qt is QueryType.P2:
            return self.project(one(0, 0), r[1], tag)
        if qt is QueryType.P3:
            return self.project(self.project(one(0, 0), r[1], tag), r[2], tag)
        if qt is QueryType.I2:
            return one(0, 0) & one(1, 1)
        if qt is QueryType.I3:
            return one(0, 0) & one(1, 1) & one(2, 2)
        if qt is QueryType.IP:
            return self.project(one(0, 0) & one(1, 1), r[2], tag)
        if qt is QueryType.PI:
            return self.project(one(0, 0), r[1], tag) & one(1, 2)
        if qt is QueryType.U2:
            return one(0, 0) | one(1, 1)
        if qt is QueryType.UP:
            return self.project(one(0, 0) | one(1, 1), r[2], tag)
        raise ValueError(f"no grounding for {qt}")


def check_queries(sets: dict, split_for: str, count: int, max_answers: int, grounder: Grounder | None, outcome: Outcome) -> None:
    """Generated query sets: counts, distinctness, answer nesting and grounding."""
    for qtype, instances in sets.items():
        outcome.check(len(instances) == count, f"{len(instances)} {qtype.value} queries generated, expected {count}")
        keys = {(inst.query.anchors, inst.query.relations) for inst in instances}
        outcome.check(len(keys) == len(instances), f"duplicate {qtype.value} queries")
        for n, inst in enumerate(instances):
            nested = inst.answers_train <= inst.answers_valid <= inst.answers_test
            ok = nested and len(inst.answers_test) <= max_answers and bool(inst.hard_answers(split_for))
            if ok and grounder is not None and n < RANK_SAMPLE:
                ok = all(
                    grounder.answers(inst.query, tag) == set(answers)
                    for tag, answers in enumerate((inst.answers_train, inst.answers_valid, inst.answers_test))
                )
            outcome.check(ok, f"{qtype.value} query {n} has wrong or unusable answer sets", count=1)


def check_table(table, types, count: int, outcome: Outcome, where: str) -> None:
    for qtype in types:
        row = table.rows.get(qtype.value)
        got = row["queries"] if row else 0
        outcome.check(got == count, f"{where}: {qtype.value} evaluated {got} queries, expected {count}")
    values = [v for row in table.rows.values() for v in row.values()]
    outcome.check(all(math.isfinite(v) for v in values), f"{where}: non-finite metric")


def expected_ranks(branch_scores: list[np.ndarray], hard: list[int], known: set[int]) -> list[int]:
    """Filtered ranks counted directly: entities other than known answers that beat each answer.

    With several DNF branches an entity's key is its best rank over branches,
    each branch rank being 1 + the number of strictly higher scores.
    """
    n = branch_scores[0].shape[0]
    if len(branch_scores) == 1:
        key = branch_scores[0].astype(np.float64)
    else:
        best = np.full(n, n + 1, dtype=np.int64)
        for scores in branch_scores:
            ascending = np.sort(scores)
            best = np.minimum(best, 1 + n - np.searchsorted(ascending, scores, side="right"))
        key = -best.astype(np.float64)
    allowed = np.ones(n, dtype=bool)
    allowed[sorted(known)] = False
    return [1 + int(np.count_nonzero(key[allowed] > key[a])) for a in hard]


def check_ranks(rows: list[dict], models: dict, sets: dict, split: str, entities: int, outcome: Outcome, where: str) -> None:
    """Every dumped rank is in range; a fixed sample is recomputed from ``score_query``."""
    bad = [row for row in rows if not 1 <= row["rank"] <= entities]
    outcome.check(not bad, f"{where}: {len(bad)} ranks outside 1..{entities}")
    dumped: dict[tuple, dict[int, int]] = {}
    for row in rows:
        key = (row["type"], tuple(row["anchors"]), tuple(row["relations"]))
        dumped.setdefault(key, {})[row["answer"]] = row["rank"]
    for qtype, instances in sets.items():
        for inst in instances[:RANK_SAMPLE]:
            hard = sorted(inst.hard_answers(split))
            key = (qtype.value, inst.query.anchors, inst.query.relations)
            scores = kgt.evaluation.score_query(models[qtype], inst.query)
            want = expected_ranks(scores, hard, inst.filter_set)
            got = [dumped.get(key, {}).get(a) for a in hard]
            outcome.check(got == want, f"{where}: {qtype.value} ranks {got} differ from recomputed {want}")


# -- fb15k workload ------------------------------------------------------------


@dataclass
class FbInputs:
    parts: dict
    split: object
    model: Model  # trained by the pre-training and fine-tuning phases
    eval_model: Model  # the same seeded initialization, evaluated untrained
    train_queries: list[dict]  # one fine-tuning set per finetune chunk


def fb_setup(seed: int, data_dir: Path, finetune_chunks: int, outcome: Outcome | None, recorder=None) -> tuple[FbInputs, float]:
    """Generate, write and load the graph, init the models and generate the
    fine-tuning queries. Returns the inputs and the timed seconds; checks (when
    ``outcome`` is given) are not timed. A recorder traces the set-up as its
    own phase."""
    if recorder:
        recorder.install()
        span = recorder.begin("phase.setup")
    t0 = time.perf_counter()
    parts = datagen.zipf_triples(seed)
    elapsed = time.perf_counter() - t0
    if outcome is not None:
        datagen.check_parts(parts, datagen.FB_ENTITIES, datagen.FB_RELATIONS, datagen.FB_SPLIT)
    t0 = time.perf_counter()
    datagen.write_parts(data_dir, parts)
    split = kgt.graph.load_split(data_dir)
    elapsed += time.perf_counter() - t0
    if outcome is not None:
        check_split(split, datagen.FB_ENTITIES, datagen.FB_RELATIONS, datagen.FB_SPLIT, outcome)
    t0 = time.perf_counter()
    config = ModelConfig(split.entity_count, split.relation_count)
    model = Model.init(config, seed=seed)
    eval_model = Model.init(config, seed=seed)
    train_queries = [
        {
            qt: kgt.queries.generate_queries(split, qt, FINETUNE_QUERIES, np.random.default_rng([seed, 11, c, i]))
            for i, qt in enumerate(TRAINABLE_TYPES)
        }
        for c in range(finetune_chunks)
    ]
    elapsed += time.perf_counter() - t0
    if recorder:
        recorder.end(span)
        recorder.uninstall()
    if outcome is not None:
        grounder = Grounder(parts)
        for c, sets in enumerate(train_queries):
            outcome.attempt(len(TRAINABLE_TYPES) * FINETUNE_QUERIES)
            check_queries(sets, "train", FINETUNE_QUERIES, MAX_ANSWERS, grounder if c == 0 else None, outcome)
    return FbInputs(parts, split, model, eval_model, train_queries), elapsed


def pad_probe(split, seed: int) -> dict:
    """Stage-1 batch widths and real/padded node ratio on the generated graph."""
    rng = np.random.default_rng([seed, 0x9AD])
    widths, real, slots = [], 0, 0
    for _ in range(PAD_PROBE_BATCHES):
        subs = kgt.sampling.sample_stage1_batch(split.train, rng, PRETRAIN_BATCH)
        sizes = [s.levi.node_count for s in subs]
        widths.append(max(sizes))
        real += sum(sizes)
        slots += max(sizes) * len(sizes)
    return {"stage1_batch_widths": widths, "stage1_pad_ratio": real / slots}


def fb_plan(seconds: float) -> dict[str, int]:
    return {phase: chunks(seconds, phase, share) for phase, share in FB_SHARES.items()}


def fb_pipeline(inputs: FbInputs, seed: int, plan: dict[str, int], outcome: Outcome, recorder=None) -> dict:
    """Stage 1, stage 2 and fine-tuning of ``inputs.model``, then query generation
    and evaluation of ``inputs.eval_model``, each as a series of timed calls."""
    timings = Timings()
    result = {"timings": timings, "loss": {}, "ranks": [], "tables": [], "sets": []}
    graph = inputs.split.train
    for phase_index, phase in enumerate(("stage1", "stage2", "finetune")):
        losses = result["loss"].setdefault(phase, [])
        for c in range(plan[phase]):
            config_seed = seed * 1000 + 100 * phase_index + c
            if phase == "finetune":
                sets = inputs.train_queries[c]
                steps, work = len(sets), sum(map(len, sets.values()))
                config = TrainConfig(stage=Stage.FINETUNE, epochs=1, batch_size=FINETUNE_BATCH, label_smoothing=0.0, seed=config_seed)
            else:
                steps = STAGE1_STEPS if phase == "stage1" else STAGE2_STEPS
                work = steps * PRETRAIN_BATCH
                stage = Stage.STAGE1 if phase == "stage1" else Stage.STAGE2
                config = TrainConfig(stage=stage, epochs=1, batch_size=PRETRAIN_BATCH, steps_per_epoch=steps, seed=config_seed)
            outcome.attempt(steps)
            close = timed(recorder, phase)
            try:
                if phase == "finetune":
                    records = kgt.train.finetune(inputs.model, sets, config)
                else:
                    records = kgt.train.pretrain(inputs.model, graph, config)
            except PROGRAM_ERRORS as exc:
                close()
                outcome.fail(f"{phase} chunk {c}: {type(exc).__name__}: {exc}", count=steps)
                return result
            timings.add(phase, close(), work)
            chunk_losses = [r["loss"] for r in records]
            outcome.check(all(math.isfinite(v) for v in chunk_losses), f"{phase} chunk {c}: non-finite loss {chunk_losses}", count=steps)
            losses.extend(chunk_losses)

    per_chunk = len(QueryType) * EVAL_QUERIES
    for c in range(plan["eval"]):
        outcome.attempt(2 * per_chunk)  # generated, then evaluated
        close = timed(recorder, "gen_queries")
        try:
            sets = {
                qt: kgt.queries.generate_queries(inputs.split, qt, EVAL_QUERIES, np.random.default_rng([seed, 12, c, i]), split_for="valid")
                for i, qt in enumerate(QueryType)
            }
        except PROGRAM_ERRORS as exc:
            close()
            outcome.fail(f"gen-queries chunk {c}: {type(exc).__name__}: {exc}", count=2 * per_chunk)
            return result
        timings.add("gen_queries", close(), per_chunk)
        dump: list[dict] = []
        close = timed(recorder, "eval")
        try:
            table = kgt.evaluation.evaluate(inputs.eval_model, sets, split="valid", rank_dump=dump)
        except PROGRAM_ERRORS as exc:
            close()
            outcome.fail(f"evaluate chunk {c}: {type(exc).__name__}: {exc}", count=per_chunk)
            return result
        timings.add("eval", close(), per_chunk)
        result["ranks"].extend(dump)
        result["tables"].append(table)
        result["sets"].append(sets)
    return result


def run_fb15k(args, work: Path, outcome: Outcome, recorder) -> dict:
    plan = fb_plan(args.seconds)
    setup_seconds, inputs = [], None
    for r in range(1 if recorder else FB_SETUP_REPEATS):
        # free the previous repetition, so that every one starts from the same heap
        inputs = None
        gc.collect()
        inputs, elapsed = fb_setup(args.seed, work / "data", plan["finetune"], outcome if r == 0 else None, recorder)
        setup_seconds.append(elapsed)
    setup_peak = peak_mib()

    runs = {"untraced": fb_pipeline(inputs, args.seed, plan, outcome)}
    ckpt = work / "final.kgtc"
    kgt.checkpoint.save_checkpoint(inputs.model, ckpt)
    reloaded = kgt.checkpoint.load_checkpoint(ckpt)
    outcome.check(
        reloaded.params.keys() == inputs.model.params.keys()
        and all(np.array_equal(reloaded.params[n].data, t.data) for n, t in inputs.model.params.items()),
        "checkpoint does not load back to the saved parameters",
    )
    base = runs["untraced"]
    ranks_text = rank_lines(base["ranks"])
    digests = {
        "final_checkpoint": sha256_file(ckpt),
        "rank_dump": sha256_text(ranks_text),
        "metrics_json": sha256_text("".join(t.to_json() for t in base["tables"])),
    }
    if recorder:
        inputs.model = Model.init(inputs.model.config, seed=args.seed)
        recorder.install()
        runs["traced"] = fb_pipeline(inputs, args.seed, plan, outcome, recorder)
        kgt.checkpoint.save_checkpoint(inputs.model, work / "final_traced.kgtc")
        recorder.uninstall()
        traced = runs["traced"]
        outcome.check(traced["loss"] == base["loss"], "traced losses differ from untraced")
        outcome.check(sha256_file(work / "final_traced.kgtc") == digests["final_checkpoint"], "traced checkpoint differs from untraced")
        outcome.check(rank_lines(traced["ranks"]) == ranks_text, "traced rank dump differs from untraced")

    grounder = Grounder(inputs.parts)
    for c, (sets, table) in enumerate(zip(base["sets"], base["tables"])):
        check_queries(sets, "valid", EVAL_QUERIES, MAX_ANSWERS, grounder if c == 0 else None, outcome)
        check_table(table, list(QueryType), EVAL_QUERIES, outcome, f"eval chunk {c}")
    if base["sets"]:
        models = {qt: inputs.eval_model for qt in QueryType}
        check_ranks(base["ranks"], models, base["sets"][0], "valid", inputs.split.entity_count, outcome, "eval chunk 0")

    info = {"zipf_exponent": datagen.FB_ZIPF, "degree": datagen.degree_profile(inputs.parts, datagen.FB_ENTITIES)}
    info.update(pad_probe(inputs.split, args.seed))
    timings = base["timings"]
    metrics = {"setup_s": statistics.median(setup_seconds)}
    for phase, name in PHASE_RATES.items():
        if timings.wall.get(phase):
            metrics[name] = timings.rate(phase)
    for phase in ("stage1", "stage2", "finetune"):
        if base["loss"].get(phase):
            metrics[f"{phase}.loss"] = float(np.mean(base["loss"][phase]))
    metrics["pipeline_s"] = timings.seconds()
    metrics["setup_rss_mib"] = setup_peak
    return {
        "inputs": info,
        "metrics": metrics,
        "chunks": {label: {"plan": plan, "wall": r["timings"].wall, "peak_mib": r["timings"].peak_mib} for label, r in runs.items()},
        "digests": digests,
        "param_tensors": len(inputs.model.params),
        "overhead": overhead(runs),
        "setup_seconds": setup_seconds,
    }


def overhead(runs: dict) -> dict[str, float]:
    """Traced over untraced wall time of each phase's chunks, minus 1. Both runs do the same work."""
    if "traced" not in runs:
        return {}
    untraced, traced = runs["untraced"]["timings"].wall, runs["traced"]["timings"].wall
    return {phase: sum(traced[phase]) / sum(walls) - 1.0 for phase, walls in untraced.items() if traced.get(phase)}


# -- toy-cli workload ------------------------------------------------------------


def toy_setup(seed: int, root: Path, work: Path, check: bool) -> float:
    """Write the toy dataset and config; time a fresh interpreter importing the CLI."""
    t0 = time.perf_counter()
    parts = datagen.toy_triples(seed)
    elapsed = time.perf_counter() - t0
    if check:
        datagen.check_parts(parts, datagen.TOY_ENTITIES, datagen.TOY_RELATIONS, datagen.TOY_SPLIT)
    t0 = time.perf_counter()
    datagen.write_parts(work / "raw", parts)
    config = TOY_CONFIG.format(
        seed=seed,
        epochs=TOY_EPOCHS,
        batch=PRETRAIN_BATCH,
        steps=TOY_STEPS,
        finetune_epochs=TOY_FINETUNE_EPOCHS,
        finetune_batch=TOY_FINETUNE_BATCH,
        combos="|".join(",".join(t.value for t in combo) for combo in TOY_COMBOS),
        train=TOY_TRAIN_QUERIES,
        valid=TOY_VALID_QUERIES,
        test=TOY_TEST_QUERIES,
    )
    (work / "run.cfg").write_text(config, encoding="utf-8")
    subprocess.run([sys.executable, "-c", "import kgt.cli"], check=True, cwd=root, timeout=60)
    return elapsed + time.perf_counter() - t0


def toy_expected_files() -> dict[str, list[str]]:
    trainable = [t.value for t in TRAINABLE_TYPES]
    every = [t.value for t in QueryType]
    return {
        "ingest": ["dataset/" + f for f in ("entities.txt", "relations.txt", "train.txt", "valid.txt", "test.txt", "manifest.json")],
        "gen-queries": [f"queries/train_{t}.jsonl" for t in trainable]
        + [f"queries/{s}_{t}.jsonl" for s in ("valid", "test") for t in every]
        + ["queries/manifest.json"],
        "pretrain 1": ["checkpoints/stage1.kgtc", "logs/stage1.jsonl", "checkpoints/stage1.manifest.json"],
        "pretrain 2": ["checkpoints/stage2.kgtc", "logs/stage2.jsonl", "checkpoints/stage2.manifest.json"],
        "finetune": ["checkpoints/finetune_multi.kgtc", "checkpoints/selection.json", "logs/finetune.jsonl"]
        + [f"checkpoints/finetune_best_{t}.kgtc" for t in every],
        "evaluate valid": ["metrics/valid.json", "metrics/valid.txt", "metrics/ranks_valid.jsonl", "metrics/valid.manifest.json"],
        "evaluate test": ["metrics/test.json", "metrics/test.txt", "metrics/test.manifest.json"],
    }


def toy_pipeline(work: Path, seconds: float, outcome: Outcome, label: str, recorder=None) -> dict:
    """Run the CLI pipeline several times into fresh output directories."""
    timings, walls, outs = Timings(), [], []
    for c in range(chunks(seconds, "pipeline")):
        out = work / f"out_{label}_{c}"
        base = ["--config", str(work / "run.cfg"), "--out", str(out)]
        close_pipeline = timed(recorder, "pipeline")
        for command, phase, work_done in TOY_COMMANDS:
            outcome.attempt()
            t0 = time.perf_counter()
            try:
                code = kgt.cli.main(base + [part.format(raw=work / "raw") for part in command])
            except PROGRAM_ERRORS as exc:
                code = f"{type(exc).__name__}: {exc}"
            if phase:
                timings.add(phase, time.perf_counter() - t0, work_done)
            outcome.check(code == 0, f"pipeline {c}: kgt {' '.join(command)} returned {code}", count=1)
        walls.append(close_pipeline())
        outs.append(out)
        for step, names in toy_expected_files().items():
            missing = [name for name in names if not (out / name).is_file()]
            outcome.check(not missing, f"pipeline {c}: {step} did not write {missing}")
    return {"timings": timings, "walls": walls, "outs": outs}


def toy_artifacts(out: Path) -> dict[str, str]:
    """Digests of the outputs that identical runs must reproduce byte for byte.

    Logs carry wall-clock seconds and manifests carry the output directory, so
    both are left out.
    """
    files = sorted(out.rglob("*"))
    return {
        str(p.relative_to(out)): sha256_file(p)
        for p in files
        if p.is_file() and p.parent.name != "logs" and not p.name.endswith("manifest.json")
    }


def log_losses(out: Path, stage: str) -> list[float]:
    lines = (out / "logs" / f"{stage}.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line)["loss"] for line in lines]


def check_toy_outputs(outs: list[Path], outcome: Outcome) -> tuple[dict, dict, int]:
    """Check the pipelines' outputs; return the logged losses, digests and parameter count."""
    first = toy_artifacts(outs[0])
    losses = {stage: log_losses(outs[0], stage) for stage in ("stage1", "stage2", "finetune")}
    for out in outs[1:]:
        outcome.check(toy_artifacts(out) == first, f"{out.name} differs from {outs[0].name}: runs are not byte-identical")
        outcome.check(all(log_losses(out, s) == v for s, v in losses.items()), f"{out.name} logged other losses than {outs[0].name}")
    for stage, values in losses.items():
        outcome.check(bool(values) and all(math.isfinite(v) for v in values), f"toy {stage}: losses {values}")

    out = outs[0]
    for split, count in (("valid", TOY_VALID_QUERIES), ("test", TOY_TEST_QUERIES)):
        table = json.loads((out / f"metrics/{split}.json").read_text(encoding="utf-8"))
        for qtype in QueryType:
            got = table["rows"].get(qtype.value, {}).get("queries")
            outcome.check(got == count, f"toy {split}: {qtype.value} evaluated {got} queries, expected {count}")
    selection = json.loads((out / "checkpoints/selection.json").read_text(encoding="utf-8"))
    models = {qt: kgt.checkpoint.load_checkpoint(out / "checkpoints" / selection["checkpoints"][qt.value]) for qt in QueryType}
    sets = {qt: kgt.queries.read_queries(out / f"queries/valid_{qt.value}.jsonl") for qt in QueryType}
    rows = [json.loads(line) for line in (out / "metrics/ranks_valid.jsonl").read_text(encoding="utf-8").splitlines()]
    check_ranks(rows, models, sets, "valid", datagen.TOY_ENTITIES, outcome, "toy valid")
    digests = {
        "rank_dump": first["metrics/ranks_valid.jsonl"],
        "metrics_json": sha256_text(first["metrics/valid.json"] + first["metrics/test.json"]),
        "final_checkpoint": first["checkpoints/finetune_multi.kgtc"],
    }
    return losses, digests, len(models[QueryType.P1].params)


def run_toy(args, root: Path, work: Path, outcome: Outcome, recorder) -> dict:
    setup_seconds = [toy_setup(args.seed, root, work, check=r == 0) for r in range(1 if recorder else TOY_SETUP_REPEATS)]
    setup_peak = peak_mib()
    runs = {"untraced": toy_pipeline(work, args.seconds, outcome, "untraced")}
    if recorder:
        recorder.install()
        runs["traced"] = toy_pipeline(work, args.seconds, outcome, "traced", recorder)
        recorder.uninstall()
    base = runs["untraced"]
    losses, digests, param_tensors = {}, {}, 0
    try:
        losses, digests, param_tensors = check_toy_outputs(base["outs"] + runs.get("traced", {}).get("outs", []), outcome)
    except (OSError, KeyError, ValueError) as exc:  # a failed command left outputs missing or malformed
        outcome.check(False, f"toy outputs unreadable: {type(exc).__name__}: {exc}")

    timings = base["timings"]
    metrics = {"setup_s": statistics.median(setup_seconds), "setup_rss_mib": setup_peak}
    for phase, name in PHASE_RATES.items():
        metrics[name] = timings.rate(phase)
    for stage, values in losses.items():
        metrics[f"{stage}.loss"] = float(np.mean(values))
    metrics["pipeline_s"] = statistics.median(base["walls"])
    return {
        "inputs": {"entities": datagen.TOY_ENTITIES, "relations": datagen.TOY_RELATIONS, "split": datagen.TOY_SPLIT, "config": (work / "run.cfg").read_text(encoding="utf-8").splitlines()},
        "metrics": metrics,
        "chunks": {label: {"pipeline": r["walls"], "commands": r["timings"].wall, "peak_mib": r["timings"].peak_mib} for label, r in runs.items()},
        "digests": digests,
        "param_tensors": param_tensors,
        "overhead": {**overhead(runs), "pipeline": sum(runs["traced"]["walls"]) / sum(base["walls"]) - 1.0} if recorder else {},
        "setup_seconds": setup_seconds,
    }


# -- entry point ---------------------------------------------------------------

WORKLOADS = ("fb15k", "toy-cli")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
    outcome = Outcome()
    args.work.mkdir(parents=True, exist_ok=True)
    if args.workload == "fb15k":
        report = run_fb15k(args, args.work, outcome, recorder)
    else:
        report = run_toy(args, args.root, args.work, outcome, recorder)
    measured = report["metrics"]
    missing = [name for name, _ in END_TO_END if name not in measured]
    outcome.check(not missing, f"no value for {missing}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "header": header(args.root),
        "inputs": report["inputs"],
        "chunks": report["chunks"],
        "setup_seconds": report["setup_seconds"],
        "peak_rss_mib": peak_mib(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "correct": not outcome.problems,
        "end_to_end": {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END if name in measured},
        "not_gated": {name: {"value": measured[name], "unit": unit} for name, unit in NOT_GATED if name in measured},
        "digests": report["digests"],
    }
    if recorder:
        layers, absent = spans.layer_metrics(recorder, report["param_tensors"], report["overhead"])
        result["per_layer"] = layers
        result["absent"] = absent + recorder.absent
        result["coverage"] = spans.phase_coverage(recorder.spans)
        result["overhead"] = report["overhead"]
        with open(args.work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span) + "\n")
    (args.work / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
