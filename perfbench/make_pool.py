"""Recompute the candidate pools that child.py draws its random graphs from.

    python3 perfbench/make_pool.py [N ...]

For each graph size the benchmark uses (or each size N given), it reduces
200 candidate graphs of up to 10 vertices, or 40 larger ones,
`random_graph(random.Random(f"pool:{n}:{j}"), n, p=0.5, max_deg=4)` and
keeps the indices j whose k*N (crossings times model vertices, which sets
the cost of `reduce`) lies within 5% of the median over the candidates.  Of
those it keeps the ones whose decomposition work, the sum of 2^|bag|, lies
within 25% of their median; the first 12 form the pool of that size.  The
benchmark's seed then picks one kept graph per size, so the work of a run
varies little from seed to seed.

The pools in child.py were computed once and are kept fixed, so that a
change to udgcut's drawing or reduction never changes the benchmark's
inputs.  This script documents how they were chosen; the benchmark does not
run it.
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import udgcut  # noqa: E402
from child import PIPELINE_SIZES, SMALL_RANDOM_SIZES, pool_graph  # noqa: E402

KN_BAND = 0.05
BAG_BAND = 0.25
POOL_SIZE = 12


def pool(n: int) -> tuple[int, ...]:
    stats = []
    for j in range(200 if n <= 10 else 40):
        r = udgcut.reduce(pool_graph(udgcut, n, j))
        td = udgcut.greedy_tree_decomposition(r.result)
        stats.append((j, r.k * r.result.n, sum(1 << len(b) for b in td.bags)))
    kn = statistics.median_low(x for _, x, _ in stats)
    near = [(j, b) for j, x, b in stats if abs(x - kn) <= KN_BAND * kn]
    bags = statistics.median_low(b for _, b in near)
    kept = [j for j, b in near if abs(b - bags) <= BAG_BAND * bags]
    return tuple(kept[:POOL_SIZE])


def main():
    sizes = [int(a) for a in sys.argv[1:]] or SMALL_RANDOM_SIZES + PIPELINE_SIZES
    for n in sizes:
        print(f"    {n}: {pool(n)},", flush=True)


if __name__ == "__main__":
    main()
