"""Outside-in span recorder for the traced benchmark run.

Spans are recorded by replacing public functions of the program with timing
wrappers at the module attributes their callers look them up through (for
example ``kgt.train.forward`` as well as ``kgt.model.forward``). Nothing under
``src/`` changes, and the untraced run never imports this module.

A span is ``[name, start, end, parent, unit, value]``: ``parent`` is the index
of the enclosing span (-1 at the root), ``unit`` the optimizer step or query
the span belongs to, and ``value`` an optional count taken from the call (tape
records, padded slots, checkpoint bytes, queries returned). Spans stay in
memory and are written when the workload ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable

NAME, START, END, PARENT, UNIT, VALUE = range(6)

# Entry points the benchmark (or the CLI) calls once per phase step. They are
# transparent for coverage: the layer spans directly below them count as the
# phase's top-level spans.
ENTRY_SPANS = ("cli.", "train.pretrain", "train.finetune", "queries.generate_queries", "evaluation.evaluate")


@dataclass(frozen=True)
class Target:
    """One function to wrap: where it is looked up, and how its span is named."""

    module: str
    attr: str  # "name" or "Class.method"
    span: str  # span name, or its prefix when ``suffix`` is given
    suffix: Callable[[tuple, dict], str] | None = None
    value: Callable[[tuple, dict, Any], Any] | None = None
    opens_unit: bool = False
    closes_unit: bool = False
    track_memory: bool = False


def _layer_suffix(args, kwargs) -> str:
    return f".layer{kwargs.get('layer', args[1] if len(args) > 1 else '')}"


def _cli_suffix(args, kwargs) -> str:
    argv = list(kwargs.get("argv", args[0] if args else None) or [])
    commands = ("ingest", "gen-queries", "pretrain", "finetune", "evaluate")
    for i, word in enumerate(argv):
        if word in commands:
            rest = argv[i + 1 :]
            suffix = ""
            for flag in ("--stage", "--split"):
                if flag in rest and rest.index(flag) + 1 < len(rest):
                    value = rest[rest.index(flag) + 1]
                    suffix = f"_stage{value}" if flag == "--stage" else f"_{value}"
            return "." + word.replace("-", "_") + suffix
    return ".unknown"


def _batch_slots(args, kwargs, batch) -> tuple[int, int]:
    return int(sum(batch.sizes)), int(batch.entity_ids.size)


def _file_bytes(args, kwargs, result) -> int:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path)


def _tape_records(args, kwargs, result) -> int:
    return len(args[0])


def _returned(args, kwargs, result) -> int:
    return len(result)


def _queries_passed(args, kwargs, result) -> int:
    datasets = kwargs.get("datasets", args[1] if len(args) > 1 else {})
    return sum(len(instances) for instances in datasets.values())


TENSOR_OPS = (
    "gelu",
    "matmul",
    "masked_softmax",
    "softmax",
    "layer_norm",
    "dropout",
    "gather_rows",
    "cross_entropy",
    "answer_masked_cross_entropy",
)

TARGETS: tuple[Target, ...] = (
    # entry points
    Target("kgt.cli", "main", "cli", suffix=_cli_suffix),
    Target("kgt.train", "pretrain", "train.pretrain"),
    Target("kgt.cli", "pretrain", "train.pretrain"),
    Target("kgt.train", "finetune", "train.finetune"),
    Target("kgt.cli", "finetune", "train.finetune"),
    Target("kgt.queries", "generate_queries", "queries.generate_queries", value=_returned),
    Target("kgt.cli", "generate_queries", "queries.generate_queries", value=_returned),
    Target("kgt.evaluation", "evaluate", "evaluation.evaluate", value=_queries_passed),
    Target("kgt.cli", "evaluate", "evaluation.evaluate", value=_queries_passed),
    # graph
    Target("kgt.graph", "load_split", "graph.load_split", track_memory=True),
    Target("kgt.cli", "load_split", "graph.load_split", track_memory=True),
    # sampling
    Target("kgt.train", "sample_stage1_batch", "sampling.stage1_batch", value=_returned),
    Target("kgt.sampling", "meta_tree_sample", "sampling.draw"),
    Target("kgt.sampling", "layer_dependent_sample", "sampling.draw"),
    Target("kgt.sampling", "induce_subgraph", "sampling.induce"),
    Target("kgt.train", "sample_meta_graph", "sampling.meta_graph"),
    # model
    Target("kgt.train", "encode_subgraphs", "model.encode", value=_batch_slots),
    Target("kgt.train", "encode_queries", "model.encode", value=_batch_slots),
    Target("kgt.evaluation", "encode_queries", "model.encode", value=_batch_slots),
    Target("kgt.model", "forward", "model.forward"),
    Target("kgt.train", "forward", "model.forward"),
    Target("kgt.evaluation", "forward", "model.forward"),
    Target("kgt.model", "attention_layer", "model.attention", suffix=_layer_suffix),
    Target("kgt.model", "moe_ffn", "model.moe", suffix=_layer_suffix),
    # tensor
    Target("kgt.tensor", "Tape.backward", "tensor.backward", value=_tape_records),
    *(Target("kgt.tensor", op, f"tensor.op.{op}") for op in TENSOR_OPS),
    # optim
    Target("kgt.train", "clip_global_norm", "optim.clip"),
    Target("kgt.optim", "AdamW.step", "optim.adamw", closes_unit=True),
    # queries
    Target("kgt.queries", "ground_answers", "queries.ground_answers"),
    # evaluation
    Target("kgt.evaluation", "score_query", "evaluation.score", opens_unit=True),
    Target("kgt.evaluation", "filtered_rank", "evaluation.rank"),
    # checkpoint
    Target("kgt.checkpoint", "save_checkpoint", "checkpoint.save", value=_file_bytes),
    Target("kgt.cli", "save_checkpoint", "checkpoint.save", value=_file_bytes),
    Target("kgt.checkpoint", "load_checkpoint", "checkpoint.load"),
    Target("kgt.cli", "load_checkpoint", "checkpoint.load"),
)


class Recorder:
    """In-memory spans plus the patches that produce them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.unit = 0
        self.installed: set[str] = set()  # span names (or prefixes) with a live wrapper
        self.absent: list[str] = []  # "module.attr" that could not be found
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = target.span if target.suffix is None else target.span + target.suffix(args, kwargs)
            if target.opens_unit:
                recorder.unit += 1
            index = recorder.begin(name)
            tracing = target.track_memory and not tracemalloc.is_tracing()
            if tracing:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if tracing:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                recorder.end(index)
            if tracing:
                recorder.spans[index][VALUE] = peak
            elif target.value is not None:
                recorder.spans[index][VALUE] = target.value(args, kwargs, result)
            if target.closes_unit:
                recorder.unit += 1
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the ones that do not."""
        self.absent = []
        wrappers: dict[tuple[int, str], Callable] = {}
        for target in targets:
            where = f"{target.module}.{target.attr}"
            try:
                owner = importlib.import_module(target.module)
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(where)
                continue
            if not callable(original):
                self.absent.append(where)
                continue
            key = (id(original), target.span)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, target)
            setattr(owner, attr, wrappers[key])
            self._patches.append((owner, attr, original))
            self.installed.add(target.span)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- per-layer metrics -----------------------------------------------------

MEASURED_PHASES = ("stage1", "stage2", "finetune", "gen_queries", "eval", "pipeline")
MODEL_LAYERS = 4
CLI_COMMANDS = (
    "ingest",
    "gen_queries",
    "pretrain_stage1",
    "pretrain_stage2",
    "finetune",
    "evaluate_valid",
    "evaluate_test",
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, span family it needs) for every per-layer metric, in report order."""
    specs = [
        ("graph.load_split_s", "s", "graph.load_split"),
        ("graph.load_split_peak_mib", "MiB", "graph.load_split"),
        ("sampling.stage1_batch_ms", "ms", "sampling.stage1_batch"),
        ("sampling.induce_ms", "ms", "sampling.induce"),
        ("sampling.meta_graph_ms", "ms", "sampling.meta_graph"),
        ("sampling.draws_per_graph", "ratio", "sampling.draw"),
        ("model.encode_ms", "ms", "model.encode"),
        ("model.pad_ratio", "ratio", "model.encode"),
        ("model.forward_ms", "ms", "model.forward"),
    ]
    specs += [(f"model.attention.layer{i}_ms", "ms", "model.attention") for i in range(MODEL_LAYERS)]
    specs += [(f"model.moe.layer{i}_ms", "ms", "model.moe") for i in range(MODEL_LAYERS)]
    specs += [
        ("model.forward_self_ms", "ms", "model.forward"),
        ("model.param_tensors", "count", ""),
        ("tensor.backward_ms", "ms", "tensor.backward"),
        ("tensor.tape_records", "count", "tensor.backward"),
    ]
    for op in TENSOR_OPS:
        specs += [(f"tensor.op.{op}_ms", "ms", f"tensor.op.{op}"), (f"tensor.op.{op}_calls", "count", f"tensor.op.{op}")]
    specs += [
        ("optim.clip_ms", "ms", "optim.clip"),
        ("optim.adamw_ms", "ms", "optim.adamw"),
        ("queries.ground_answers_ms", "ms", "queries.ground_answers"),
        ("queries.accept_ratio", "ratio", "queries.generate_queries"),
        ("queries.generate_per_s", "1/s", "queries.generate_queries"),
        ("evaluation.queries_per_s", "1/s", "evaluation.evaluate"),
        ("evaluation.score_ms", "ms", "evaluation.score"),
        ("evaluation.rank_ms", "ms", "evaluation.rank"),
        ("evaluation.forwards_per_query", "ratio", "evaluation.evaluate"),
        ("checkpoint.save_ms", "ms", "checkpoint.save"),
        ("checkpoint.load_ms", "ms", "checkpoint.load"),
        ("checkpoint.bytes", "bytes", "checkpoint.save"),
    ]
    specs += [(f"cli.{command}_s", "s", "cli") for command in CLI_COMMANDS]
    for phase in MEASURED_PHASES:
        specs += [(f"trace.{phase}.coverage", "ratio", ""), (f"trace.{phase}.overhead", "ratio", "")]
    return specs


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _has_ancestor(spans: list[list], index: int, prefix: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME].startswith(prefix):
            return True
        parent = spans[parent][PARENT]
    return False


def phase_coverage(spans: list[list]) -> dict[str, float]:
    """Share of each phase's wall time covered by its top-level layer spans.

    A span is top-level when its nearest ancestor that is not an entry point
    is the phase span itself.
    """
    anchor = [-1] * len(spans)  # nearest non-entry ancestor
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0 and spans[parent][NAME].startswith(ENTRY_SPANS):
            anchor[i] = anchor[parent]
        else:
            anchor[i] = parent
    wall: dict[str, float] = {}
    covered: dict[str, float] = {}
    for i, span in enumerate(spans):
        if span[NAME].startswith("phase."):
            phase = span[NAME][len("phase.") :]
            wall[phase] = wall.get(phase, 0.0) + span[END] - span[START]
        elif anchor[i] >= 0 and spans[anchor[i]][NAME].startswith("phase.") and not span[NAME].startswith(ENTRY_SPANS):
            phase = spans[anchor[i]][NAME][len("phase.") :]
            covered[phase] = covered.get(phase, 0.0) + span[END] - span[START]
    return {phase: covered.get(phase, 0.0) / seconds for phase, seconds in wall.items() if seconds > 0}


def layer_metrics(recorder: Recorder, param_tensors: int, overhead: dict[str, float]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the recorded spans, plus the names that are absent.

    A metric is absent when none of the functions it wraps exists any more;
    a layer that exists but did no work on this workload reports 0.
    """
    spans = recorder.spans
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def durations(name: str) -> list[float]:
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, [])]

    def values(name: str) -> list:
        return [spans[i][VALUE] for i in by_name.get(name, []) if spans[i][VALUE] is not None]

    def mean_ms(name: str) -> float:
        return 1e3 * _mean(durations(name))

    out: dict[str, float] = {
        "graph.load_split_s": _mean(durations("graph.load_split")),
        "graph.load_split_peak_mib": max(values("graph.load_split"), default=0) / 2**20,
        "sampling.stage1_batch_ms": mean_ms("sampling.stage1_batch"),
        "sampling.induce_ms": mean_ms("sampling.induce"),
        "sampling.meta_graph_ms": mean_ms("sampling.meta_graph"),
        "model.encode_ms": mean_ms("model.encode"),
        "model.forward_ms": mean_ms("model.forward"),
        "model.param_tensors": float(param_tensors),
        "tensor.backward_ms": mean_ms("tensor.backward"),
        "tensor.tape_records": _mean(values("tensor.backward")),
        "optim.clip_ms": mean_ms("optim.clip"),
        "optim.adamw_ms": mean_ms("optim.adamw"),
        "evaluation.score_ms": mean_ms("evaluation.score"),
        "evaluation.rank_ms": mean_ms("evaluation.rank"),
        "checkpoint.save_ms": mean_ms("checkpoint.save"),
        "checkpoint.load_ms": mean_ms("checkpoint.load"),
        "checkpoint.bytes": _mean(values("checkpoint.save")),
    }
    graphs = sum(values("sampling.stage1_batch"))
    out["sampling.draws_per_graph"] = len(by_name.get("sampling.draw", [])) / graphs if graphs else 0.0
    slots = values("model.encode")
    padded = sum(s for _, s in slots)
    out["model.pad_ratio"] = sum(r for r, _ in slots) / padded if padded else 0.0
    for i in range(MODEL_LAYERS):
        out[f"model.attention.layer{i}_ms"] = mean_ms(f"model.attention.layer{i}")
        out[f"model.moe.layer{i}_ms"] = mean_ms(f"model.moe.layer{i}")

    children: dict[int, float] = {}
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0 and span[NAME].startswith(("model.attention.", "model.moe.")):
            children[parent] = children.get(parent, 0.0) + span[END] - span[START]
    forwards = by_name.get("model.forward", [])
    out["model.forward_self_ms"] = 1e3 * _mean(spans[i][END] - spans[i][START] - children.get(i, 0.0) for i in forwards)

    for op in TENSOR_OPS:
        out[f"tensor.op.{op}_ms"] = mean_ms(f"tensor.op.{op}")
        out[f"tensor.op.{op}_calls"] = float(len(by_name.get(f"tensor.op.{op}", [])))

    outermost = [i for i in by_name.get("queries.ground_answers", []) if not _has_ancestor(spans, i, "queries.ground_answers")]
    out["queries.ground_answers_ms"] = 1e3 * _mean(spans[i][END] - spans[i][START] for i in outermost)
    candidates = len(outermost) / 3  # each candidate query is grounded on train, valid and test
    out["queries.accept_ratio"] = sum(values("queries.generate_queries")) / candidates if candidates else 0.0

    generated = sum(values("queries.generate_queries"))
    out["queries.generate_per_s"] = generated / sum(durations("queries.generate_queries")) if generated else 0.0
    evaluated = sum(values("evaluation.evaluate"))
    out["evaluation.queries_per_s"] = evaluated / sum(durations("evaluation.evaluate")) if evaluated else 0.0
    eval_forwards = sum(1 for i in forwards if _has_ancestor(spans, i, "evaluation.evaluate"))
    out["evaluation.forwards_per_query"] = eval_forwards / evaluated if evaluated else 0.0

    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = _mean(durations(f"cli.{command}"))
    coverage = phase_coverage(spans)
    for phase in MEASURED_PHASES:
        out[f"trace.{phase}.coverage"] = coverage.get(phase, 0.0)
        out[f"trace.{phase}.overhead"] = overhead.get(phase, 0.0)

    absent = [name for name, _, family in metric_specs() if family and family not in recorder.installed]
    metrics = {name: {"value": out[name], "unit": unit} for name, unit, _ in metric_specs() if name not in absent}
    return metrics, absent
