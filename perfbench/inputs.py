"""Build the input files of one benchmark workload and their known answers.

    python3 perfbench/inputs.py --workload NAME --seed N --out DIR

Writes the structure files the omlkit CLI will be given, plus
``manifest.json`` with what each input is known to be from how it was
built (Boolean or not, orthomodular or not, its covers and complement).
The verdict oracle in plan.py reads only that manifest, never omlkit.

Lattices are products of builtins made with ``omlkit.lattice.direct_product``.
The seed picks the labels and the element order of every generated file
and the corpus order given to ``terms-filter``; it never changes a verdict.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Builtin lattices that are Boolean algebras (mo1 is the four-element
#: algebra 2^2); every other builtin lattice is not distributive.
BOOLEAN_BUILTINS = {"boolean_1", "boolean_2", "boolean_3", "boolean_4",
                    "boolean_5", "mo1"}
OML_BUILTINS = ("boolean_1", "boolean_2", "boolean_3", "boolean_4",
                "boolean_5", "mo1", "mo2", "mo3", "mo4", "product_2p4_mo2")
FILTER_CORPUS = ("boolean_2", "mo2", "boolean_3", "product_2p4_mo2")
PAPER_EXAMPLE_COVERS = [["{}", "{1}"], ["{}", "{2}"],
                        ["{1}", "{1,2}"], ["{2}", "{1,2}"]]
PAPER_EXAMPLE_COMPLEMENT = {"{}": "{1,2}", "{1}": "{2}", "{2}": "{1}", "{1,2}": "{}"}

#: Generated lattices per ladder workload: (name, factors, element order).
#: A product is Boolean exactly when all its factors are.  Most files list
#: elements bottom-up; "random" lists them in any seeded order, which keeps
#: the state search's sensitivity to element order measured (README.md).
PRODUCTS = {
    "boolean-ladder": (
        ("b5", ("boolean_3", "boolean_2"), "bottom-up"),
        ("b6", ("boolean_3", "boolean_3"), "bottom-up"),
        ("b7", ("boolean_4", "boolean_3"), "bottom-up"),
    ),
    "mo-products": (
        ("mo3xb2r", ("mo3", "boolean_2"), "random"),
        ("mo4xb4", ("mo4", "boolean_4"), "bottom-up"),
        ("mo3xmo2xb2", ("mo3", "mo2", "boolean_2"), "bottom-up"),
        ("mo2xb5", ("mo2", "boolean_5"), "bottom-up"),
    ),
}
#: How each product chain repeats its shortest commands (plan.lattice_chain).
#: A time summed over a few short invocations spreads most between runs
#: (README.md, "Noise").
REPEATS = {
    "boolean-ladder": {"check_oml_runs": 3, "check_full_runs": 1, "search_twice": True},
    "mo-products": {"check_oml_runs": 3, "check_full_runs": 3, "search_twice": False},
}


def cover_pairs(leq):
    """Transitive reduction of a reflexive-transitive boolean matrix."""
    n = len(leq)
    up = [sum(1 << j for j in range(n) if leq[i][j] and i != j) for i in range(n)]
    down = [sum(1 << i for i in range(n) if leq[i][j] and i != j) for j in range(n)]
    return [(x, y) for x in range(n) for y in range(n)
            if up[x] >> y & 1 and not up[x] & down[y]]


def _reference(oml, labels):
    """Covers and complement of oml under the given labels."""
    return {
        "covers": sorted([labels[x], labels[y]] for x, y in cover_pairs(oml.poset.leq)),
        "complement": {labels[i]: labels[c] for i, c in enumerate(oml.comp)},
    }


def write_oml(path: Path, oml, rng: random.Random, order_kind: str) -> dict:
    """Write oml with seeded labels and element order; return its reference.

    A "bottom-up" order lists elements with fewer elements below first,
    ties in seeded order; a "random" order is any seeded permutation.  On
    64 elements and more, a random order makes states-find orders of
    magnitude slower, too slow for one run (README.md).
    """
    n = oml.n
    labels = [f"x{v:04x}" for v in rng.sample(range(16 ** 4), n)]
    leq = oml.poset.leq
    below = [sum(leq[y][x] for y in range(n)) for x in range(n)]
    tie = rng.sample(range(n), n)
    if order_kind == "random":
        order = tie
    else:
        order = sorted(range(n), key=lambda x: (below[x], tie[x]))
    ref = _reference(oml, labels)
    covers = [tuple(c) for c in ref["covers"]]
    rng.shuffle(covers)
    lines = ["KIND oml", "ELEMENTS", " ".join(labels[i] for i in order), "COVERS"]
    lines += [f"{a} {b}" for a, b in covers]
    lines.append("COMPLEMENT")
    lines += [f"{labels[i]} {ref['complement'][labels[i]]}" for i in order]
    path.write_text("\n".join(lines) + "\n")
    return ref


def write_events(path: Path, rows) -> None:
    """A KIND events file: one (label, values) row per element."""
    lines = ["KIND events", "ELEMENTS", " ".join(lab for lab, _ in rows), "EVENTS"]
    lines += [f"{lab} " + " ".join(vals) for lab, vals in rows]
    path.write_text("\n".join(lines) + "\n")


def _defect_events(out: Path, rng: random.Random) -> list:
    """The two event files the CLI is known to crash on (an OracleMismatch
    traceback), with the outcome the CLI documents for them."""
    a, b, c, d = (f"p{v:03x}" for v in rng.sample(range(16 ** 3), 4))
    write_events(out / "chain.txt", [(a, ["0"]), (b, ["1/3"]), (c, ["2/3"]), (d, ["1"])])
    write_events(out / "duplicate.txt",
                 [(a, ["0"]), (b, ["1/2"]), (c, ["1/2"]), (d, ["1"])])
    return [
        # complement-closed and lattice-ordered, but 1/3 + 1/3 = 2/3 is not
        # the supremum of 1/3 with itself: a failed event-algebra law.
        {"target": str(out / "chain.txt"), "exit": 1, "names_failed_law": True,
         "known_defect": True},
        # two elements with the same vector: unusable input.
        {"target": str(out / "duplicate.txt"), "exit": 2, "names_failed_law": False,
         "known_defect": True},
    ]


def build(workload: str, seed: int, out: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from omlkit import corpus, lattice

    rng = random.Random(f"{workload}/{seed}")
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "lattices": [], "rings": [],
                "events": [], "commands": []}
    if workload == "corpus-suite":
        for name in OML_BUILTINS:
            manifest["lattices"].append({
                "target": name, "tag": name, "boolean": name in BOOLEAN_BUILTINS,
                "orthomodular": True,
                **_reference(corpus.builtin(name), corpus.builtin(name).elements)})
        for target in ("o6", str(ROOT / "data" / "o6.txt")):
            manifest["lattices"].append({"target": target, "tag": "o6",
                                         "boolean": False, "orthomodular": False})
        # The paper's two-set example: a valid event ring on the lattice 2^2
        # whose addition is not a Boolean-ring addition.
        # Its product is intersection, so its order is inclusion of subsets.
        for target in ("paper-example-2set", str(ROOT / "data" / "paper-example-2set.txt")):
            manifest["rings"].append({"target": target, "boolean": False,
                                      "covers": PAPER_EXAMPLE_COVERS,
                                      "complement": PAPER_EXAMPLE_COMPLEMENT})
        manifest["events"] = _defect_events(out, rng)
        manifest["commands"] = [
            ["verify-all"],
            ["terms-enumerate"],
            ["terms-filter", "--corpus", ",".join(rng.sample(FILTER_CORPUS, 4))],
        ]
    elif workload in PRODUCTS:
        for tag, factors, order_kind in PRODUCTS[workload]:
            oml = corpus.builtin(factors[0])
            for f in factors[1:]:
                oml = lattice.direct_product(oml, corpus.builtin(f))
            path = out / f"{tag}.txt"
            ref = write_oml(path, oml, rng, order_kind)
            manifest["lattices"].append({
                "target": str(path), "tag": tag, "orthomodular": True,
                **REPEATS[workload],
                "boolean": all(f in BOOLEAN_BUILTINS for f in factors), **ref})
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    (out / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    build(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
