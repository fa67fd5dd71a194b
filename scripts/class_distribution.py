#!/usr/bin/env python3
"""Show the MAJ/STAT equidistribution on one rearrangement class.

Prints the joint (des, MAJ) and (des, STAT) distributions as coefficient
tables of the generating polynomial sum(t^des q^stat), then lists how the
involution pairs the class elements.  A class of more than 10^7 words is
refused, as `mahonian table` refuses it.

Example:
    python scripts/class_distribution.py 1122
"""
import argparse
import sys
from collections import Counter

from mahonian import involution, verify, words
from mahonian.errors import DEFAULT_CAP, refuse_over_cap


def coefficient_table(dist: Counter) -> str:
    max_des = max(t for t, _ in dist)
    max_q = max(q for _, q in dist)
    lines = ["des\\q " + " ".join(f"{q:>3}" for q in range(max_q + 1))]
    for t in range(max_des + 1):
        row = " ".join(f"{dist.get((t, q), 0):>3}" for q in range(max_q + 1))
        lines.append(f"{t:>5} {row}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("word", help='any word of the class, e.g. "1122"')
    args = parser.parse_args(argv)

    try:
        letters = words.parse_word(args.word)
        refuse_over_cap("rearrangement class has", verify.multinomial(letters), "elements", DEFAULT_CAP)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    members = list(verify.rearrangement_class(letters))
    print(f"class of {words.format_word(words.sorted_word(letters))}: {len(members)} words")

    maj_dist = verify.joint_distribution(members, ("des", "maj"))
    stat_dist = verify.joint_distribution(members, ("des", "stat"))
    print("\n(des, MAJ) coefficients")
    print(coefficient_table(maj_dist))
    print("\n(des, STAT) coefficients")
    print(coefficient_table(stat_dist))
    print(f"\nequal distributions: {maj_dist == stat_dist}")

    print("\ninvolution pairing (word -> image, MAJ/STAT shown):")
    maj, stat = words.statistic("maj"), words.statistic("stat")
    seen = set()
    for v in members:
        if v in seen:
            continue
        image = involution.phi_on_class(v)
        seen.update({v, image})
        tag = "fixed" if image == v else "swap "
        print(
            f"  {tag} {words.format_word(v)} (MAJ={maj(v)}, STAT={stat(v)})"
            f" <-> {words.format_word(image)} (MAJ={maj(image)}, STAT={stat(image)})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
