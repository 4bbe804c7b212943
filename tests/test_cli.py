"""Command-line front end: subcommands, report documents, exit codes."""

import contextlib
import io
import json
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from cmtype import DEFAULT_BUDGETS, groebner
from cmtype.cli import PARSER, main
from cmtype.families import FamilyTag, _scroll_types_with_nvars
from cmtype.presentation import render_presentation
from cmtype.report import plain

from oracles import rational_homogeneous_presentations


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestClassifyCommand:
    def test_gw12_report(self, capsys, tmp_path):
        path = write(tmp_path, "gw12.ring", "ring: x, y, z\nideal: x*y, y*z, z^2\n")
        doc = run_json(capsys, "classify", path)
        assert doc["verdict"] == "countable_infinite"
        assert any("eqn:gw-1,2" in j["citation"] for j in doc["justification"])
        assert doc["invariants"]["hvector"] == [1, 2]
        assert doc["tool_version"]
        assert doc["input_digest"].startswith("sha256:")

    def test_assume_flag_round_trips(self, capsys, tmp_path):
        path = write(tmp_path, "r.ring", "ring: x, y\nideal: x*y\n")
        doc = run_json(capsys, "classify", path, "--assume", "reduced")
        assert doc["assumptions"] == ["reduced"]
        assert doc["verdict"] == "finite"

    def test_verdict_strings_are_stable(self, capsys, tmp_path):
        cases = {
            "finite": "ring: x, y\nideal: x*y\n",
            "countable_infinite": "ring: x, y\nideal: y^2\n",
            "uncountable": "ring: x, y\nideal: x^2*y^2\n",
            "open_unknown": "ring: x, y, z, w\nideal: x^2 + y^2, z^2 + w^2\n",
            "out_of_scope": "ring: x, y\nideal: x^2, x*y\n",
        }
        for expected, text in cases.items():
            path = write(tmp_path, "case.ring", text)
            doc = run_json(capsys, "classify", path)
            assert doc["verdict"] == expected


class TestAnalyzeCommand:
    def test_invariants_and_singularity_sections(self, capsys, tmp_path):
        path = write(tmp_path, "gw12.ring", "ring: x, y, z\nideal: x*y, y*z, z^2\n")
        doc = run_json(capsys, "analyze", path)
        inv = doc["invariants"]
        assert (inv["dim"], inv["multiplicity"], inv["cm_type"]) == (1, 3, 2)
        assert inv["is_gorenstein"] is False
        assert doc["singularity"]["equidimensional_assumed"] is True
        assert doc["artinian_reduction"]["length"] == 3

    def test_human_readable_output(self, capsys, tmp_path):
        path = write(tmp_path, "line.ring", "ring: x\nideal:\n")
        code, out, err = run_cli(capsys, "analyze", path)
        assert code == 0
        assert "invariants.dim: 1" in out


class TestOneBasisPerIdeal:
    """A run computes each reduced Groebner basis once: `analyze` builds the
    pipeline and every consumer reads its bundle instead of recomputing."""

    CASES = {
        "gw12": ("generate", "gw12"),
        "scroll_1-2": ("generate", "scroll", "1,2"),
        # the first forms drawn at seed 1 are no parameters, so the sequential
        # search runs and meets the one-basis ideal again
        "scroll_2-2": ("generate", "scroll", "2,2"),
        "veronese_cone_5": ("generate", "veronese_cone", "5"),
        "quadric_3_4": ("generate", "quadric", "3", "4"),
        "dim0_x2_y2": "ring: x, y\nideal: x^2, y^2\n",
        # dim 2, not of minimal multiplicity: classify reaches the singular
        # locus, and every Jacobian minor already lies in the ideal
        "x2_xy_y3": "ring: x, y, z, u\nideal: x^2, x*y, y^3\n",
    }

    @staticmethod
    def record_bases(monkeypatch):
        original = groebner.buchberger
        bases = []

        def recording(*args, **kwargs):
            gb = original(*args, **kwargs)
            bases.append((gb.variables, gb.order, gb.elements))
            return gb

        for name, module in list(sys.modules.items()):
            if name == "cmtype" or name.startswith("cmtype."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, recording)
        return bases

    @pytest.mark.parametrize("subcommand", ["classify", "analyze"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_no_reduced_basis_is_returned_twice(self, capsys, tmp_path, monkeypatch, subcommand, case):
        source = self.CASES[case]
        if isinstance(source, tuple):
            code, source, err = run_cli(capsys, *source)
            assert code == 0, err
        path = write(tmp_path, "ring.ring", source)
        bases = self.record_bases(monkeypatch)
        run_json(capsys, subcommand, path)
        assert bases
        assert len(set(bases)) == len(bases)


class TestSemigroupCommand:
    def test_paper_values(self, capsys):
        doc = run_json(capsys, "semigroup", "3,7")
        assert doc["report"]["e"] == 3
        assert doc["report"]["lambda"] == 2
        assert doc["report"]["finite_type"] is False

    def test_gcd_failure_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "semigroup", "4,6")
        assert code == 2
        assert "gcd" in err

    def test_negative_generator_exit_2(self, capsys):
        # it used to be dropped silently, reporting <2,3>
        code, out, err = run_cli(capsys, "semigroup", "2,3,-1")
        assert code == 2
        assert "generator -1 is negative" in err and not out


class TestArrangementCommand:
    def test_four_lines(self, capsys, tmp_path):
        path = write(tmp_path, "arr.ring", "ring: x, y\nideal: y, x, x - y, x + y\n")
        doc = run_json(capsys, "arrangement", path, "--reduction", "x + 2*y")
        assert doc["report"]["e"] == 4
        assert doc["report"]["finite_type"] is False

    def test_vanishing_reduction_is_an_input_error(self, capsys, tmp_path):
        path = write(tmp_path, "arr.ring", "ring: x, y\nideal: x, y\n")
        code, out, err = run_cli(capsys, "arrangement", path, "--reduction", "x")
        assert code == 2

    def test_reduction_parse_error_names_the_option(self, capsys, tmp_path):
        path = write(tmp_path, "arr.ring", "ring: x, y\nideal: x, y\n")
        code, out, err = run_cli(capsys, "arrangement", path, "--reduction", "x+")
        assert code == 2 and not out
        assert err == "error: --reduction: unexpected end of input (line 1, column 3)\n"


class TestGenerateCommand:
    def test_round_trip_for_every_catalog_family_with_few_variables(self, capsys, tmp_path):
        specs = [("gw12", []), ("graded12", []), ("sym3x3", []), ("polynomial_ring", ["3"])]
        specs += [("quadric", [str(r), "4"]) for r in (2, 3, 4)]
        specs += [("binary_form", ["2,1"])]
        specs += [
            ("scroll", [",".join(str(a) for a in t)])
            for n in range(2, 8)
            for t in _scroll_types_with_nvars(n)
        ]
        specs += [("veronese_cone", ["5"]), ("veronese_cone", ["6"])]
        for family, args in specs:
            code, out, err = run_cli(capsys, "generate", family, *args)
            assert code == 0, (family, err)
            path = write(tmp_path, "gen.ring", out)
            classify_code, cout, cerr = run_cli(capsys, "classify", path, "--json")
            assert classify_code == 0, (family, cerr)
            doc = json.loads(cout)
            assert doc["verdict"] in (
                "finite",
                "countable_infinite",
                "uncountable",
                "open_unknown",
            ), family

    def test_unknown_family_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "generate", "mystery")
        assert code == 2


class TestGbCommand:
    def test_reduced_basis_rendered(self, capsys, tmp_path):
        path = write(
            tmp_path, "tc.ring", "ring: x, y, z\nideal: x*z - y^2, x^2 - y*z, x*y - z^2\n"
        )
        doc = run_json(capsys, "gb", path)
        assert doc["order"] == "degrevlex"
        assert sorted(doc["basis"]) == ["x*y - z^2", "x^2 - y*z", "y^2 - x*z"]


class TestSharedParser:
    """The parser is built once, at import: one call's flags must not leak
    into the next call's namespace."""

    def test_no_state_carries_between_calls(self, capsys, tmp_path):
        path = write(tmp_path, "r.ring", "ring: x, y\nideal: x*y\n")
        assert run_json(capsys, "classify", path, "--assume", "reduced")["assumptions"] == ["reduced"]
        assert run_json(capsys, "classify", path)["assumptions"] == []
        assert run_json(capsys, "analyze", path, "--seed", "5")["artinian_reduction"]["seed"] == 5
        assert run_json(capsys, "analyze", path)["artinian_reduction"]["seed"] == 1
        code, out, err = run_cli(capsys, "classify", path, "--json")
        assert code == 0 and json.loads(out)["command"] == "classify"
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 0 and out.startswith("tool_version: ")
        assert PARSER.parse_args(["classify", path]).assume == []

    @pytest.mark.parametrize(
        "subcommand, positionals",
        [
            ("analyze", ["file"]),
            ("classify", ["file"]),
            ("semigroup", ["generators"]),
            ("arrangement", ["file"]),
            ("generate", ["family", "args"]),
            ("gb", ["file"]),
        ],
    )
    def test_help_names_the_positional_arguments(self, capsys, subcommand, positionals):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: cmtype {subcommand} ")
        listed = out.split("positional arguments:\n", 1)[1].split("\n\n", 1)[0]
        # one line per argument, its help text wrapped onto deeper-indented lines
        assert [line.split()[0] for line in listed.splitlines() if not line.startswith("   ")] == positionals


class TestDeterminismAndExitCodes:
    def test_canonical_digest_stable_across_runs(self, capsys, tmp_path):
        path = write(tmp_path, "gw12.ring", "ring: x, y, z\nideal: x*y, y*z, z^2\n")
        first = run_json(capsys, "classify", path)
        second = run_json(capsys, "classify", path)
        assert first["canonical_digest"] == second["canonical_digest"]
        strip = lambda d: {k: v for k, v in d.items() if k != "timings"}
        assert json.dumps(strip(first), sort_keys=True) == json.dumps(
            strip(second), sort_keys=True
        )

    def test_byte_determinism_outside_timings(self, capsys, tmp_path):
        path = write(tmp_path, "q.ring", "ring: x, y, z, w\nideal: x^2 + y^2 + z^2\n")
        outputs = []
        for _ in range(2):
            code, out, err = run_cli(capsys, "classify", path, "--json")
            assert code == 0
            lines = [l for l in out.splitlines() if '"total_ms"' not in l]
            outputs.append("\n".join(lines))
        assert outputs[0] == outputs[1]

    def test_syntax_error_exit_2(self, capsys, tmp_path):
        path = write(tmp_path, "bad.ring", "ring: x\nideal: x*\n")
        code, out, err = run_cli(capsys, "analyze", path)
        assert code == 2
        assert "line" in err

    def test_missing_file_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "/nonexistent/path.ring")
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [("analyze",), ("classify",), ("gb",), ("arrangement", "--reduction", "x + y")]
    )
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, argv):
        # UnicodeDecodeError is a ValueError, which an OSError handler lets through
        data = b"ring: x, y\nideal: x*y\xff\n"
        path = tmp_path / "latin1.ring"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert f"cannot read {path}: not UTF-8 (invalid start byte at byte {data.index(0xFF)})" in err
        assert "Traceback" not in err

    def test_budget_exit_3(self, capsys, tmp_path):
        path = write(
            tmp_path, "tc.ring", "ring: x, y, z\nideal: x*z - y^2, x^2 - y*z, x*y - z^2\n"
        )
        code, out, err = run_cli(capsys, "gb", path, "--budget-pairs", "0")
        assert code == 3
        assert "buchberger: pair budget 0 exceeded" in err

    @pytest.mark.parametrize("flag", ["--budget-pairs", "--budget-degree"])
    def test_negative_budget_exit_2(self, capsys, tmp_path, flag):
        # a negative budget used to run and end in an out_of_scope verdict
        path = write(tmp_path, "r.ring", "ring: x, y\nideal: x*y\n")
        with pytest.raises(SystemExit) as exc:
            main(["classify", path, flag, "-3"])
        assert exc.value.code == 2
        assert f"{flag}: must be a nonnegative integer, got -3" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, capsys, tmp_path):
        # random.Random seeds -3 as 3: the LSOP of seed 3 under another digest
        path = write(tmp_path, "r.ring", "ring: x, y\nideal: x*y\n")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, "--seed", "-3"])
        assert exc.value.code == 2
        assert "--seed: must be a nonnegative integer, got -3" in capsys.readouterr().err

    def test_seed_zero_is_a_seed(self, capsys, tmp_path):
        path = write(tmp_path, "r.ring", "ring: x, y\nideal: x*y\n")
        doc = run_json(capsys, "analyze", path, "--seed", "0")
        assert doc["artinian_reduction"]["seed"] == 0

    def test_minimalize_budget_exits_cleanly(self, capsys, tmp_path):
        path = write(tmp_path, "huge.ring", "ring: x, y\nideal: x^2, y^100000000\n")
        code, out, err = run_cli(capsys, "analyze", path)
        assert code == 3
        assert "minimalize_presentation" in err and "Traceback" not in err
        code, out, err = run_cli(capsys, "classify", path, "--json")
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["verdict"] == "out_of_scope"

    def test_hilbert_numerator_budget_exits_cleanly(self, capsys, tmp_path):
        path = write(tmp_path, "huge.ring", "ring: x, y\nideal: x^100000000*y - y^100000001\n")
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "classify", path, "--json")
        assert code == 0 and "Traceback" not in err
        report = json.loads(out)
        assert report["verdict"] == "out_of_scope"
        assert "hilbert_numerator: degree bound 100000001" in report["reason"]
        code, out, err = run_cli(capsys, "analyze", path)
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert "hilbert_numerator" in err and "Traceback" not in err

    def test_huge_degree_budget_keeps_the_hilbert_bound_short(self, capsys, tmp_path):
        # the discarding bound is truncated at MAX_BOUND_DEGREE, not at the
        # degree budget: 10^8 coefficients would exhaust memory, and counting
        # standard monomials up to the pair of degree 10^8 + 2 would not end
        started = time.perf_counter()
        for ideal in ("x^100000000*y - y^100000001", "x^100000000*y - y^100000001, x*y^2"):
            path = write(tmp_path, "huge.ring", f"ring: x, y\nideal: {ideal}\n")
            code, out, err = run_cli(capsys, "gb", path, "--budget-degree", "1000000000")
            assert code == 0 and "Traceback" not in err
        assert time.perf_counter() - started < 1.0

    def test_minor_budget_degrades_analyze(self, capsys, tmp_path):
        # bench/corpus/scroll_1-1-1-2.ring: 10 quadrics in 9 variables, codim 4,
        # C(10, 4) * C(9, 4) = 26,460 Jacobian minors over the 20,000 budget
        path = write(
            tmp_path,
            "scroll.ring",
            "ring: x0_0, x1_0, x0_1, x1_1, x0_2, x1_2, x0_3, x1_3, x2_3\n"
            "ideal: -x1_0*x0_1 + x0_0*x1_1, -x1_0*x0_2 + x0_0*x1_2, -x1_0*x0_3 + x0_0*x1_3,"
            " -x1_0*x1_3 + x0_0*x2_3, -x1_1*x0_2 + x0_1*x1_2, -x1_1*x0_3 + x0_1*x1_3,"
            " -x1_1*x1_3 + x0_1*x2_3, -x1_2*x0_3 + x0_2*x1_3, -x1_2*x1_3 + x0_2*x2_3,"
            " -x1_3^2 + x0_3*x2_3\n",
        )
        code, out, err = run_cli(capsys, "analyze", path, "--json")
        assert code == 0 and "Traceback" not in err
        doc = json.loads(out)
        assert doc["singularity"] is None
        assert doc["singularity_skipped"] == (
            "singular_locus: 26460 Jacobian minors exceed the minor budget 20000"
        )
        inv = doc["invariants"]
        assert (inv["dim"], inv["embdim"], inv["multiplicity"], inv["cm_type"]) == (5, 9, 5, 4)
        assert doc["artinian_reduction"]["length"] == 5
        code, out, err = run_cli(capsys, "analyze", path)
        assert code == 0 and "singularity_skipped: singular_locus: 26460" in out
        # the key appears only when the budget fires
        path = write(tmp_path, "gw12.ring", "ring: x, y, z\nideal: x*y, y*z, z^2\n")
        assert "singularity_skipped" not in run_json(capsys, "analyze", path)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("semigroup", "1000000,1000001"),
                "semigroup_closure: the sieve needs 1000001000001 entries",
            ),
            (
                ("generate", "scroll", "100000000"),
                "catalog_presentation: scroll has variable count 100000001",
            ),
            (
                ("generate", "polynomial_ring", "100000000"),
                "catalog_presentation: polynomial_ring has variable count 100000000",
            ),
        ],
    )
    def test_oversized_inputs_exit_3_before_allocating(self, capsys, argv, message):
        # each used to end in a MemoryError traceback
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "subcommand, ideal, message",
        [
            ("classify", "(x+y+z)^100", "needs more than 50000 term products"),
            ("classify", "*".join(["(x+y+z)"] * 100), "needs more than 50000 term products"),
            ("analyze", "7" * 5000 + "*x^2", "an integer literal has more than 1000 digits"),
            ("gb", "x^2 - 3^200000*y^2", "a coefficient has more than 1000 digits"),
        ],
    )
    def test_oversized_expressions_exit_2(self, capsys, tmp_path, subcommand, ideal, message):
        # the expansions took 46 s and 3.7 s; the big integers ended in a
        # ValueError traceback from int() or from rendering the coefficient
        path = write(tmp_path, "big.ring", f"ring: x, y, z\nideal: {ideal}\n")
        started = time.perf_counter()
        code, out, err = run_cli(capsys, subcommand, path)
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("subcommand", ["gb", "analyze", "classify"])
    def test_term_degree_past_the_digit_cap_exits_2(self, capsys, tmp_path, subcommand):
        # (x^E)^E for a 1,000-digit E has a 2,000-digit degree; unchecked, the
        # nested powers ended in a ValueError traceback from str() of the
        # exponent (gb) or of the degree in a budget message (analyze, classify)
        exponent = "9" * 1000
        ideal = "(" * 4 + f"x^{exponent}" + f")^{exponent}" * 4
        path = write(tmp_path, "degree.ring", f"ring: x\nideal: {ideal}\n")
        code, out, err = run_cli(capsys, subcommand, path)
        assert code == 2
        assert "a term has a degree of more than 1000 digits (line 2, column 1015)" in err
        assert "Traceback" not in err

    def test_oversized_basis_coefficient_exits_3(self, capsys, tmp_path):
        # every input coefficient has 999 digits, within parsing.MAX_DIGITS, but
        # the reduced basis grows past Python's 4,300-digit str() limit; this
        # ended in a ValueError traceback from render_polynomial
        rng = random.Random(1)
        monomials = ("x^2", "x*y", "x*z", "y^2", "y*z", "z^2")
        quadrics = [
            " + ".join(f"{rng.randint(10**998, 10**999 - 1)}*{m}" for m in monomials)
            for _ in range(2)
        ]
        path = write(tmp_path, "big.ring", "ring: x, y, z\nideal: " + ", ".join(quadrics) + "\n")
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "gb", path)
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert "render_polynomial: coefficient has" in err and "(cap 4300)" in err
        assert "Traceback" not in err

    def test_deeply_nested_parentheses_exit_2(self, capsys, tmp_path):
        path = write(tmp_path, "deep.ring", "ring: x\nideal: " + "(" * 5000 + "x" + ")" * 5000 + "\n")
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 2
        assert "nested deeper than" in err and "line 2, column 108" in err
        assert "Traceback" not in err

    def test_inhomogeneous_classify_exit_2(self, capsys, tmp_path):
        path = write(tmp_path, "inhom.ring", "ring: x, y\nideal: x^2 + y\n")
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 2

    def test_zero_generator_warning_on_stderr(self, capsys, tmp_path):
        # every subcommand that reads a presentation file passes the parser's warnings on
        for argv, ideal in (
            (("analyze",), "x - x, x*y"),
            (("classify",), "x - x, x*y"),
            (("gb",), "x - x, x*y"),
            (("arrangement", "--reduction", "x + y"), "x - x, x, y"),
        ):
            path = write(tmp_path, "warn.ring", f"ring: x, y\nideal: {ideal}\n")
            code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
            assert code == 0, err
            assert "warning: generator 1 is zero" in err


def test_plain_writes_a_record_as_a_dict_in_field_order():
    # a record is never a list; its keys keep the declaration order
    budgets = [("pairs", 50000), ("degree", 40), ("minors", 20000)]
    assert list(plain(DEFAULT_BUDGETS).items()) == budgets
    tag = [("kind", "scroll"), ("param", [1, 2]), ("certificate", None), ("attempted", True)]
    assert list(plain(FamilyTag("scroll", param=(1, 2))).items()) == tag


HEADER = ["tool_version", "command", "input_digest"]
FOOTER = ["canonical_digest", "timings"]
CLASSIFY_KEYS = [
    "assumptions", "invariants", "singularity", "family", "obstruction", "verdict", "reason",
    "justification", "assumptions_used",
]


class TestPinnedDigests:
    """Report shapes and classify rules that bench/pins.json never reaches,
    pinned by their canonical digest and top-level key order: an obstruction
    with rational entries, a null invariants section, a skipped singular
    locus, the two Drozd-Roiter commands, a rational Groebner basis, and one
    ring for each classify rule outside the catalog (regular, non-CM,
    Artinian, the Cor 3.4 binary forms, h = (1,2) with and without an
    assumption, Gorenstein, dimension >= 2 and the family fallbacks)."""

    @pytest.mark.parametrize(
        "argv, text, keys, digest",
        [
            (
                ("classify",),
                "ring: x, u, v, w\nideal: u*v, u*w, v*w, 2*u^2 - x*u, 3*v^2 - x*v, w^2 - x*w\n",
                CLASSIFY_KEYS,
                "sha256:eb609f12e93a3120f72ac08f540f0390c5b16a63d5dff12755c8c22c064730d6",
            ),
            (
                ("classify", "--budget-pairs", "0"),
                "ring: x, y, z\nideal: x*y, y*z, z^2\n",
                CLASSIFY_KEYS,
                "sha256:7e837af2c1703007abb021f314c3db22971e83b81e1f048ccb42c0b44188a02d",
            ),
            (
                ("analyze",),
                ("generate", "scroll", "1,1,1,2"),
                ["invariants", "artinian_reduction", "singularity", "singularity_skipped"],
                "sha256:8cb39e9f13f6a02d5757ffeadca9560aaa62e51ef4964dc4d6ec068bb8e2cd80",
            ),
            (
                ("semigroup", "3,7"),
                None,
                ["generators", "frobenius", "report"],
                "sha256:53e1137bfcfa8261300232e09a2ea6de86267fb5985558c18e669adbf2e4d0f5",
            ),
            (
                ("arrangement", "--reduction", "x + 3*y"),
                "ring: x, y\nideal: x, y, x + y\n",
                ["lines", "reduction", "report"],
                "sha256:2ba2227e0eafbfba56010ac4344be0fcc84755a159fbc0879eebfdfcf056a6cd",
            ),
            (
                ("gb",),
                "ring: x, y, z\nideal: 1/2*x^2 - 3/4*y*z, x*y\n",
                ["order", "basis"],
                "sha256:769e39e961b632268b50d8f27c6a69436379ad677d7c64ece2ff6dfdd5e3dba8",
            ),
            (
                ("classify",),
                "ring: x, y\nideal:\n",
                CLASSIFY_KEYS,
                "sha256:8f928605a67d7be322268b6bbfe8fab041504cf0a11a91a39425975090dadfa7",
            ),
            (
                ("classify",),
                "ring: x, y\nideal: x^2, x*y\n",
                CLASSIFY_KEYS,
                "sha256:c3556fbf1a0f1c7b64e139c8e5ac1b950f0ff1361b5e9d8a1e090742b84da565",
            ),
            (
                ("classify",),
                "ring: x\nideal: x^4\n",
                CLASSIFY_KEYS,
                "sha256:312d51b9b129949c310223ac851d8d4e786a655d7b9fa266f09cd65bae2361d6",
            ),
            (
                ("classify",),
                "ring: x, y\nideal: x^2, x*y, y^2\n",
                CLASSIFY_KEYS,
                "sha256:78f402e1a5648189b78a4711f30d18a1a147170ee57d8a1766500f5c706539d1",
            ),
            (
                ("classify",),
                "ring: x, y\nideal: x*y\n",
                CLASSIFY_KEYS,
                "sha256:d90e815cc82b6667565e62deb94b02aed76ed93dd48107590d9ce7d0ab2d5c1b",
            ),
            (
                ("classify",),
                "ring: x, y\nideal: x^2*y + x*y^2\n",
                CLASSIFY_KEYS,
                "sha256:42f3479394d0ad5a421181b2f5d921d511abc3e9043aa75d4a33dee4fc9107f8",
            ),
            (
                ("classify",),
                "ring: x, y\nideal: y^2\n",
                CLASSIFY_KEYS,
                "sha256:d627083958886b1d3bc4b6fea37f8c1f6e1ce521ba4a6433c1a3896e08f61491",
            ),
            (
                ("classify",),
                "ring: x, y, z\nideal: x*y, x*z, y*z\n",
                CLASSIFY_KEYS,
                "sha256:fee5372aafc0d24d84a0fbf99bb751997fd26834f40392be334f7f11671fdc2c",
            ),
            (
                ("classify", "--assume", "reduced"),
                "ring: x, y, z\nideal: x*y, x*z, y*z\n",
                CLASSIFY_KEYS,
                "sha256:a48dffc9cd72d0a826bc34d318df33054600cadbee32575e88a23ae3caf4f932",
            ),
            (
                ("classify",),
                "ring: x, y, z\nideal: x^2 - y*z, y^2 - x*z\n",
                CLASSIFY_KEYS,
                "sha256:89094b600518f7b0893c527380f50dfde0bfec6f9503f435a5a1594579ee32e6",
            ),
            (
                ("classify",),
                "ring: x, y, z\nideal: x^3 + y^3 + z^3\n",
                CLASSIFY_KEYS,
                "sha256:3eb2a64399f47bf82a6b7ef6031ca6177e34f6c0a68f366f2002d6468dd2742a",
            ),
            (
                ("classify",),
                "ring: x, y, z, w\nideal: x^2 + y^2, z^2 + w^2\n",
                CLASSIFY_KEYS,
                "sha256:cc4224e8edd48e46cd37af336e1628f6376e876151353e8313dca86e81948fc6",
            ),
            (
                ("classify",),
                "ring: x, y, z, u, v\nideal: x^2, x*y, y^3\n",
                CLASSIFY_KEYS,
                "sha256:215f55f5186e39e15a7633458de74b2a83598e39ad194d4b7556afd751ac5c64",
            ),
            (
                ("classify",),
                "ring: x, y, z, u\nideal: x^2, x*y, y^3\n",
                CLASSIFY_KEYS,
                "sha256:dc464f01446463f4ea19d62722319e8f18390524cc6d7d95ab7dc133e446b9aa",
            ),
            (
                ("classify",),
                ("generate", "veronese_cone", "7"),
                CLASSIFY_KEYS,
                "sha256:144df1b4f415f979bf834c12fdbbf1e7f035013f766105ed2d879a67e3e6b958",
            ),
            (
                ("classify",),
                "ring: a, b, c, d\nideal: a*c - (a + b)^2, a*d - (a + b)*c, (a + b)*d - c^2\n",
                CLASSIFY_KEYS,
                "sha256:c3beb6c81c043d64a3de2d3002e322311d86df4dfc1ce3bc69e18cdc01d0c478",
            ),
        ],
        ids=[
            "obstruction", "null-invariants", "singularity-skipped", "semigroup", "arrangement",
            "rational-gb", "regular", "non-cm", "dim0-hypersurface",
            "dim0-obstruction", "two-lines", "three-lines", "a-infinity",
            "h12-open", "h12-open-reduced", "h121-curve", "cubic-surface",
            "gorenstein-ci", "dim3-not-minmult", "dim2-nonisolated",
            "veronese-cone-7", "unmatched-scroll",
        ],
    )
    def test_digest_and_key_order(self, capsys, tmp_path, argv, text, keys, digest):
        if isinstance(text, tuple):
            code, text, err = run_cli(capsys, *text)
            assert code == 0, err
        if text is not None:
            argv = (argv[0], write(tmp_path, "pinned.ring", text), *argv[1:])
        doc = run_json(capsys, *argv)
        assert list(doc) == HEADER + keys + FOOTER
        assert doc["canonical_digest"] == digest


# Text fragments for the fuzzed CLI: presentation keywords, names (known and
# unknown), operators, numbers and a few characters the tokenizer rejects.
FRAGMENTS = (
    "ring:", "ideal:", "ring", "ideal", "x", "y", "z", "q", "x1", ",", ";", ":", "*", "^",
    "+", "-", "/", "(", ")", "0", "1", "2", "3", "1/2", " ", "\n", "#", "!", "\u00e9",
)
SUBCOMMANDS = ("analyze", "classify", "gb", "arrangement", "semigroup", "generate")
FAMILIES = (
    "polynomial_ring", "quadric", "binary_form", "scroll", "veronese_cone", "sym3x3", "gw12",
    "graded12", "mystery",
)
FLAGS = ("--json", "--seed", "--budget-pairs", "--budget-degree")


def fuzz_texts():
    """Small presentation files: valid ones, inhomogeneous ones, and fragment soup."""
    soup = st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join)
    valid = rational_homogeneous_presentations(max_degree=3, max_generators=3)
    valid = valid.map(render_presentation)
    inhomogeneous = st.builds(
        lambda text, extra: text.rstrip("\n") + extra,
        valid,
        st.sampled_from([" + x0", " + 1", ", x0^2 + x0", ", 1", ", 0"]),
    )
    return st.one_of(valid, inhomogeneous, soup, st.builds(str.__add__, valid, soup))


@st.composite
def fuzz_argvs(draw, path):
    """A subcommand with small random positional arguments and flags; budgets
    are often tiny and 1000,1001 runs over the semigroup sieve cap, so every
    exit code occurs."""
    numbers = st.one_of(st.integers(-3, 30), st.sampled_from([1000, 1001])).map(str)
    word = st.one_of(numbers, st.sampled_from(FRAGMENTS), st.just("1,2"), st.just("x"))
    subcommand = draw(st.sampled_from(SUBCOMMANDS))
    if subcommand == "semigroup":
        argv = [subcommand, ",".join(draw(st.lists(word, min_size=1, max_size=4)))]
    elif subcommand == "generate":
        argv = [subcommand, draw(st.sampled_from(FAMILIES)), *draw(st.lists(word, max_size=3))]
    else:
        argv = [subcommand, path]
    if subcommand == "arrangement":
        argv += ["--reduction", draw(st.lists(word, min_size=1, max_size=5).map(" ".join))]
    if subcommand == "classify" and draw(st.booleans()):
        argv += ["--assume", draw(st.sampled_from(["reduced", "domain"]))]
    value = st.one_of(st.integers(-1, 3), st.integers(4, 60), st.just("x")).map(str)
    for flag in FLAGS:
        if draw(st.booleans()):
            argv += [flag] if flag == "--json" else [flag, draw(value)]
    return argv


class TestFuzzedCli:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_every_input_exits_0_2_or_3(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.ring"
        path.write_text(data.draw(fuzz_texts()), encoding="utf-8")
        argv = data.draw(fuzz_argvs(str(path)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the flags with exit 2
                code = exc.code
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
