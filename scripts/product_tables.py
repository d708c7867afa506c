"""Print the product table of a dihedral quandle ring in the shifted
basis e_i = a_i - a_0 and check the closed-form families against the
generic structure-constant multiplication.

Usage: python3 scripts/product_tables.py [n ...]   (default: 8 10)
"""

import argparse
import sys

from quandlekit.dihedral import (
    e_basis_table,
    column_periodicity_holds,
    e_product_generic,
    verify_product_formulas,
)


def print_table(n):
    table = e_basis_table(n)
    width = max(len(str(cell)) for row in table for cell in row) + 2
    header = "".join(("e_%d" % j).ljust(width) for j in range(1, n))
    print("n = %d" % n)
    print(" " * 6 + header)
    for i, row in enumerate(table, start=1):
        print(("e_%d" % i).ljust(6) + "".join(str(cell).ljust(width) for cell in row))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("orders", type=int, nargs="*", default=[8, 10])
    args = parser.parse_args()

    failures = 0
    for n in args.orders:
        print_table(n)
        for i in range(1, n):
            for j in range(1, n):
                if e_basis_table(n)[i - 1][j - 1] != e_product_generic(n, i, j):
                    print("mismatch at n=%d (%d, %d)" % (n, i, j))
                    failures += 1
        if n % 2 == 0:
            report = verify_product_formulas(n)
            print("formula families (case %d): %s" % (report.case, "ok" if report.ok else report.mismatches))
            print("column periodicity: %s" % column_periodicity_holds(n))
            if not report.ok:
                failures += 1
        print()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
