"""Enumerate isomorphism classes of small quandles and count how many
are right or left 2-transitive.

Usage: python3 scripts/enumeration_counts.py [--max-n 6]

Expected output for n = 3..6: classes 3, 7, 22, 73; right counts
3, 6, 16, 42; left counts 2, 3, 7, 14.  The n = 6 row takes a few
tens of seconds.
"""

import argparse
import time

from quandlekit.symmetry import (
    enumerate_quandles,
    is_left_peak_2transitive,
    is_right_orbit_2transitive,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=6)
    args = parser.parse_args()

    print("%3s %8s %9s %8s %8s" % ("n", "classes", "right-2t", "left-2t", "time"))
    for n in range(args.min_n, args.max_n + 1):
        start = time.monotonic()
        qs = enumerate_quandles(n)
        right = sum(is_right_orbit_2transitive(q) for q in qs)
        left = sum(is_left_peak_2transitive(q) for q in qs)
        elapsed = time.monotonic() - start
        print("%3d %8d %9d %8d %7.1fs" % (n, len(qs), right, left, elapsed))


if __name__ == "__main__":
    main()
