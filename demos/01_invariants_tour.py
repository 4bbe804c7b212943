"""A tour of the graded invariants: dimension, h-vector, multiplicity, CM type.

Run with:  python demos/01_invariants_tour.py
"""

from cmtype import analyze, parse_presentation, render_polynomial

SAMPLES = {
    "coordinate cross  k[x,y]/(xy)": "ring: x, y ; ideal: x*y",
    "gw ring           k[x,y,z]/(xy, yz, z^2)": "ring: x, y, z ; ideal: x*y, y*z, z^2",
    "cyclic minors     k[x,y,z]/det2[[x,y,z],[y,z,x]]": (
        "ring: x, y, z ; ideal: x*z - y^2, x^2 - y*z, x*y - z^2"
    ),
    "a non-CM surprise k[x,y]/(x^2, xy)": "ring: x, y ; ideal: x^2, x*y",
    "complete intersection of two quadrics": "ring: x, y, z, w ; ideal: x^2 + y^2, z^2 + w^2",
}


def main() -> None:
    for title, text in SAMPLES.items():
        bundle = analyze(parse_presentation(text))
        inv = bundle.invariants
        print(f"== {title}")
        print(f"   dim {inv.dim}, embdim {inv.embdim}, h-vector {inv.hvector}, e = {inv.multiplicity}")
        print(
            f"   Cohen-Macaulay: {inv.is_cm}"
            + (f", type {inv.cm_type}, Gorenstein: {inv.is_gorenstein}" if inv.is_cm else "")
        )
        red = bundle.reduction
        names = bundle.presentation.variables  # lsop lives here
        forms = ", ".join(render_polynomial(f, names) for f in red.lsop) or "(none needed)"
        print(f"   artinian reduction by [{forms}]: length {red.length}, counts {red.standard_monomial_counts}")
        if not inv.is_cm:
            print(f"   length {red.length} exceeds e = {inv.multiplicity}: the ring is not CM")
        print()


if __name__ == "__main__":
    main()
