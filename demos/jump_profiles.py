#!/usr/bin/env python3
"""Walk through splitting profiles of rank-2 bundles on the line over Z.

A rank-2 bundle splits as O(a) + O(b) over Q and over every F_p; the type
b - a can only jump upward at finitely many primes, and always by an even
amount.  This script builds a few bundles, prints their profiles, and
verifies the parity and 2*h^0 identities on them.
"""

from arithsurf import (
    Form,
    bundle_handle,
    check_parity,
    check_type_h0,
    free_presentation,
    normalize,
    prescribed_types,
    type_profile,
)


def show(label, handle):
    prof = type_profile(handle)
    print(f"{label}")
    print(f"  rank {handle.rank}, degree {handle.degree}")
    print(f"  generic splitting: {prof.generic.a, prof.generic.b}")
    if prof.jumps:
        for p, st in prof.jumps:
            print(f"  at p={p}: ({st.a}, {st.b})   [type {st.type}]")
    else:
        print("  no jump primes")
    print()


def main():
    print("=" * 64)
    print("split bundles have constant profiles")
    print("=" * 64)
    show("O + O(-3):", bundle_handle(free_presentation((0, -3))))

    print("=" * 64)
    print("prescribed jumps: generic type n, type n + 2*n_i at p_i")
    print("=" * 64)
    B = prescribed_types(0, [(2, 1), (3, 2)])
    show("generic type 0, jumps (2,1) and (3,2):", B)
    print("parity deltas:", check_parity(B))
    print("type delta vs 2*h^0 of the fiber:", check_type_h0(B))
    print()

    B = prescribed_types(1, [(5, 3)])
    show("generic type 1, jump (5,3):", normalize(B))
    print("at p=5 the delta is 6 = 2*3:", check_type_h0(B))


if __name__ == "__main__":
    main()
