"""Time the compiled sampling kernels against their pure-python twins.

Both paths consume the same pre-drawn uniforms, so outputs must match exactly;
the script asserts that before reporting. Run with KGT_NUMBA=0 to see the
fallback path timed against itself (speedup 1.0 by construction).

Usage: python3 benchmarks/bench_kernels.py [--entities N] [--triples N] [--repeats N]
"""

import argparse
import time

import numpy as np

from kgt.accel import NUMBA_ENABLED, python_impl
from kgt.graph import KnowledgeGraph
from kgt.sampling import _frontier_counts_kernel, _induced_positions_kernel, _meta_tree_kernel


def build_graph(entities: int, triples: int, rng: np.random.Generator) -> KnowledgeGraph:
    heads = rng.integers(entities, size=triples)
    tails = rng.integers(entities, size=triples)
    rels = rng.integers(8, size=triples)
    seen = {(int(h), int(r), int(t)) for h, r, t in zip(heads, rels, tails) if h != t}
    return KnowledgeGraph(entities, 8, sorted(seen))


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=int, default=20_000)
    parser.add_argument("--triples", type=int, default=120_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    graph = build_graph(args.entities, args.triples, rng)
    indptr_u, nbrs_u = graph.csr_undirected()
    indptr_m, nbrs_m = graph.csr_undirected_multi()
    indptr_o, tails_o, _ = graph.csr_out()
    n = graph.entity_count
    target = 4000
    uniforms = rng.random(2 * (40 * target + 200))
    members = np.unique(rng.integers(n, size=target)).astype(np.int64)
    member_flag = np.zeros(n, dtype=np.uint8)
    member_flag[members] = 1

    def meta_tree(kernel):
        def run():
            visited = np.zeros(n, dtype=np.uint8)
            out = np.zeros(target, dtype=np.int64)
            parent = np.zeros(target, dtype=np.int64)
            count = kernel(indptr_u, nbrs_u, 0, target, uniforms, visited, out, parent)
            return count, out, parent

        return run

    def frontier(kernel):
        def run():
            counts = np.zeros(n, dtype=np.int64)
            kernel(indptr_m, nbrs_m, members, member_flag, counts)
            return (counts,)

        return run

    def induced(kernel):
        def run():
            capacity = int((indptr_o[members + 1] - indptr_o[members]).sum())
            positions = np.zeros(max(capacity, 1), dtype=np.int64)
            count = kernel(indptr_o, tails_o, members, member_flag, positions)
            return count, positions

        return run

    cases = [
        ("meta-tree growth", meta_tree, _meta_tree_kernel),
        ("frontier edge counts", frontier, _frontier_counts_kernel),
        ("induced edge positions", induced, _induced_positions_kernel),
    ]

    backend = "numba" if NUMBA_ENABLED else "python (numba disabled)"
    print(f"graph: {n} entities, {len(graph)} triples; primary backend: {backend}")
    print(f"{'kernel':<26} {'primary':>10} {'python':>10} {'speedup':>8}")
    for name, make, kernel in cases:
        compiled = make(kernel)
        plain = make(python_impl(kernel))
        got = compiled()
        want = plain()
        for a, b in zip(got, want):
            assert np.array_equal(a, b), f"{name}: backend outputs differ"
        compiled()  # ensure compilation happened outside the timed region
        t_compiled = best_of(compiled, args.repeats)
        t_plain = best_of(plain, args.repeats)
        print(f"{name:<26} {t_compiled * 1e3:>8.2f}ms {t_plain * 1e3:>8.2f}ms {t_plain / t_compiled:>7.1f}x")


if __name__ == "__main__":
    main()
