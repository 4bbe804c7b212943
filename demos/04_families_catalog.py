"""The family catalog: generators, invariant tags, and recognition.

Run with:  python demos/04_families_catalog.py
"""

import random

from cmtype import (
    Polynomial,
    analyze,
    binary_form_profile,
    make_presentation,
    match_named_family,
    parse_presentation,
    quadric_rank,
    render_presentation,
    scroll_ideal,
)

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


def main() -> None:
    print("canonical scroll presentation of type (1, 2):")
    print(render_presentation(scroll_ideal((1, 2))))

    print("quadric ranks are full linear-equivalence invariants:")
    for text in ("x^2 + y^2 + z^2", "x*y", "(x + y)^2"):
        form = parse_presentation(f"ring: x, y, z ; ideal: {text}").generators[0]
        print(f"  rank({text}) = {quadric_rank(form)}")

    print()
    print("binary-form profiles (root multiplicities over the closure):")
    for form, label in [
        (X**3 * Y - X * Y**3, "x^3y - xy^3"),
        (X * Y**2, "xy^2"),
        (Y**2, "y^2"),
        (X**2 + Y**2, "x^2 + y^2"),
    ]:
        print(f"  profile({label}) = {binary_form_profile(form)}")

    print()
    print("recognition is exact up to variable permutation:")
    pres = scroll_ideal((1, 2))
    rng = random.Random(5)
    sigma = list(range(pres.nvars))
    rng.shuffle(sigma)
    scrambled = make_presentation(
        [f"v{i}" for i in range(pres.nvars)],
        [g.permute_variables(tuple(sigma)) for g in pres.generators],
    )
    tag = match_named_family(analyze(scrambled))
    print(f"  scrambled scroll(1,2) with sigma = {tuple(sigma)}")
    print(f"  matched as {tag.kind} {tag.param} with certificate {tag.certificate}")


if __name__ == "__main__":
    main()
