"""Seeded input generators for the benchmark workloads.

Both generators return plain triple lists; the workloads write them as id
files and the program under test loads them through its own loaders. The
benchmark never imports the test helpers, so the inputs stay fixed when the
tests change.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# FB15k-237 sizes: 14,505 entities, 237 relations, 272,115 / 17,535 / 20,466
# train / valid / test triples (87.7 / 5.6 / 6.7 %).
FB_ENTITIES = 14_505
FB_RELATIONS = 237
FB_SPLIT = (272_115, 17_535, 20_466)

# Head and tail entities are drawn from a Zipf-like law over two independent
# random rankings of the entities. 0.65 gives a median degree near 25 and a
# largest hub near 3.5k; stage-1 cost grows steeply with the exponent, because
# sampled subgraphs around hubs induce many edges and pad every batch wider.
FB_ZIPF = 0.65


# The toy recipe's sizes.
TOY_ENTITIES = 50
TOY_RELATIONS = 5
TOY_SPLIT = (200, 20, 20)


def zipf_triples(seed: int) -> dict[str, list[tuple[int, int, int]]]:
    """Disjoint train / valid / test increments of a hub-heavy random graph.

    A random spanning tree comes first and stays in train, so every entity
    has an edge and the train graph is connected. The remaining triples have
    Zipf-distributed heads and tails, uniform relations, no self loops and no
    duplicates; valid and test are drawn from them at random.
    """
    entities, relations, split = FB_ENTITIES, FB_RELATIONS, FB_SPLIT
    rng = np.random.default_rng([seed, 0xFB])
    total = sum(split)
    weights = np.arange(1, entities + 1, dtype=np.float64) ** -FB_ZIPF
    weights /= weights.sum()
    head_rank = rng.permutation(entities)
    tail_rank = rng.permutation(entities)

    order = rng.permutation(entities)
    parents = order[(rng.random(entities - 1) * np.arange(1, entities)).astype(np.int64)]
    children = order[1:]
    flip = rng.random(entities - 1) < 0.5
    tree = np.stack(
        [np.where(flip, children, parents), rng.integers(relations, size=entities - 1), np.where(flip, parents, children)],
        axis=1,
    )

    keys = tree[:, 0] * (relations * entities) + tree[:, 1] * entities + tree[:, 2]
    seen = set(keys.tolist())
    extra: list[np.ndarray] = []
    need = total - len(tree)
    while need > 0:
        n = need + need // 4 + 64
        h = head_rank[rng.choice(entities, size=n, p=weights)]
        t = tail_rank[rng.choice(entities, size=n, p=weights)]
        r = rng.integers(relations, size=n)
        fresh = []
        for i, key in enumerate((h * (relations * entities) + r * entities + t).tolist()):
            if h[i] != t[i] and key not in seen:
                seen.add(key)
                fresh.append(i)
                if len(fresh) == need:
                    break
        idx = np.asarray(fresh, dtype=np.int64)
        extra.append(np.stack([h[idx], r[idx], t[idx]], axis=1))
        need -= len(idx)
    rest = np.concatenate(extra)
    rest = rest[rng.permutation(len(rest))]

    n_train = split[0] - len(tree)
    train = np.concatenate([tree, rest[:n_train]])
    valid = rest[n_train : n_train + split[1]]
    test = rest[n_train + split[1] :]
    return {name: [tuple(row) for row in part.tolist()] for name, part in (("train", train), ("valid", valid), ("test", test))}


def toy_triples(seed: int) -> dict[str, list[tuple[int, int, int]]]:
    """The toy recipe: a random spanning tree, then uniform extra edges.

    The tree stays in train; valid and test come off a shuffled remainder.
    There are no hubs, so subgraphs and batches stay small.
    """
    entities, relations, split = TOY_ENTITIES, TOY_RELATIONS, TOY_SPLIT
    rng = np.random.default_rng([seed, 0x70])
    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for node in range(1, entities):
        other = int(rng.integers(node))
        r = int(rng.integers(relations))
        triple = (other, r, node) if rng.random() < 0.5 else (node, r, other)
        triples.append(triple)
        seen.add(triple)
    while len(triples) < sum(split):
        triple = (int(rng.integers(entities)), int(rng.integers(relations)), int(rng.integers(entities)))
        if triple not in seen:
            seen.add(triple)
            triples.append(triple)
    tree, rest = triples[: entities - 1], triples[entities - 1 :]
    rest = [rest[i] for i in rng.permutation(len(rest))]
    n_train = split[0] - len(tree)
    return {
        "train": tree + rest[:n_train],
        "valid": rest[n_train : n_train + split[1]],
        "test": rest[n_train + split[1] :],
    }


def check_parts(parts: dict[str, list[tuple[int, int, int]]], entities: int, relations: int, split) -> None:
    """Reject generated increments that break the workload's promises."""
    sizes = tuple(len(parts[name]) for name in ("train", "valid", "test"))
    if sizes != tuple(split):
        raise ValueError(f"split sizes {sizes}, expected {tuple(split)}")
    every = parts["train"] + parts["valid"] + parts["test"]
    if len(set(every)) != len(every):
        raise ValueError("duplicate triples across or within splits")
    arr = np.asarray(every, dtype=np.int64)
    if arr.min() < 0 or arr[:, [0, 2]].max() >= entities or arr[:, 1].max() >= relations:
        raise ValueError("id out of range")
    used = np.unique(arr[:, [0, 2]])
    if used.size != entities or np.unique(arr[:, 1]).size != relations:
        raise ValueError(f"{used.size} entities and {np.unique(arr[:, 1]).size} relations used")


def write_parts(directory: Path, parts: dict[str, list[tuple[int, int, int]]]) -> None:
    """Write the increments as tab-separated id files, the raw dataset layout."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, triples in parts.items():
        with open(directory / f"{name}.txt", "w", encoding="utf-8") as fh:
            fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in triples)


def degree_profile(parts: dict[str, list[tuple[int, int, int]]], entities: int) -> dict[str, float]:
    """Median, 90th, 99th percentile and largest total degree in the train graph."""
    arr = np.asarray(parts["train"], dtype=np.int64)
    degree = np.bincount(arr[:, 0], minlength=entities) + np.bincount(arr[:, 2], minlength=entities)
    return {
        "median": float(np.median(degree)),
        "p90": float(np.percentile(degree, 90)),
        "p99": float(np.percentile(degree, 99)),
        "max": float(degree.max()),
    }
