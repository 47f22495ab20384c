#!/usr/bin/env python3
"""General position over Z and the del Pezzo classification.

Blowing up integer points of the plane keeps every fiber del Pezzo exactly
when the points stay in general position modulo every prime: the pair
minors must have unit gcd and the triple determinants must be units.
Four points is the ceiling; a fifth always collides modulo 2.
"""

from arithsurf import (
    PointConfiguration,
    classify,
    general_position,
    minus_one_classes,
)
from arithsurf.errors import NotGeneralPosition, TooManyPoints


def check(points):
    config = PointConfiguration.parse(points)
    verdict = general_position(config)
    print(f"{points}")
    if verdict.ok:
        out = classify(config)
        print(f"  in general position: {out['model']} with K^2 = {out['K2']}")
    else:
        w = verdict.witnesses[0]
        primes = ",".join(str(p) for p in w.primes) or "generic"
        print(f"  fails: {w.kind} {w.indices} {w.note} ({primes})")
    print()


def main():
    check("1:0:0,0:1:0,0:0:1")
    check("1:0:0,0:1:0,0:0:1,1:1:1")
    check("1:0:0,0:1:0,0:0:1,2:3:5")
    check("0:0:1,5:0:1")
    check("1:0:0,0:1:0,0:0:1,1:1:1,1:-1:1")

    print("a fifth point always degenerates mod 2:")
    try:
        classify(PointConfiguration.parse("1:0:0,0:1:0,0:0:1,1:1:1,3:5:7"))
    except TooManyPoints as exc:
        print(f"  rejected with witness {exc.witness.to_json()}")
    print()

    print("(-1)-classes in the blow-up Picard lattice:")
    for r in range(1, 9):
        print(f"  r={r}: {len(minus_one_classes(r))} classes")


if __name__ == "__main__":
    main()
