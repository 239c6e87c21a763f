"""Command-line verbs: payloads, schemas, exit codes, determinism."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

import qgha
from qgha import cli
from qgha.cli import main
from qgha.errors import DigitLimitExceeded
from qgha.fields import FieldSpec


def _load_schemas():
    out = {}
    for entry in (resources.files("qgha") / "schemas").iterdir():
        if entry.name.endswith(".json"):
            doc = json.loads(entry.read_text())
            out[doc["$id"]] = doc
    return out


SCHEMAS = _load_schemas()
REGISTRY = Registry().with_resources(
    [(sid, Resource.from_contents(doc)) for sid, doc in SCHEMAS.items()]
)

BASE = ["--field", "GF(5)", "--q", "2", "--f", "h^2", "--g", "h"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, schema=None):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    payload = json.loads(out)
    if schema is not None:
        jsonschema.Draft202012Validator(SCHEMAS[schema], registry=REGISTRY).validate(payload)
    return payload


def test_normalize(capsys):
    code, out, _ = run_cli(capsys, "normalize", *BASE, "y*x")
    assert code == 0
    assert out.strip() == "h + x * 2 * y"
    payload = run_json(capsys, "normalize", *BASE, "y*x", schema="qgha:element")
    assert payload["element"] == "h + x * 2 * y"
    assert payload["terms"] == [{"x": 0, "y": 0, "h": "h"}, {"x": 1, "y": 1, "h": "2"}]


def test_multiply(capsys):
    payload = run_json(capsys, "multiply", *BASE, "y", "x", schema="qgha:element")
    assert payload["element"] == "h + x * 2 * y"


def test_theta(capsys):
    payload = run_json(capsys, "theta", *BASE, "--k", "2", schema="qgha:poly")
    assert payload == {"k": 2, "poly": "h^2 + 2*h"}


def test_conformal(capsys):
    args = ["conformal", "--field", "Q", "--q", "1", "--f", "h^2", "--g", "h^2 - h"]
    payload = run_json(capsys, *args, schema="qgha:conformal")
    assert payload["status"] == "conformal"
    assert payload["a"] == "h"
    assert payload["residuals"]["ok"] is True
    not_conf = run_json(
        capsys, "conformal", "--field", "Q", "--q", "1", "--f", "h^2", "--g", "1",
        schema="qgha:conformal",
    )
    assert not_conf == {"status": "not_conformal"}


def test_center(capsys):
    args = ["center", "--field", "GF(5)", "--q", "2", "--f", "h^2", "--g", "h^2 + 3*h",
            "--degree-cap", "2048", "--max-xy", "4", "--max-h", "8"]
    payload = run_json(capsys, *args, schema="qgha:center")
    assert payload["dimension"] == 2
    assert payload["basis"][0] == "1"


def test_domain(capsys):
    payload = run_json(capsys, "domain", *BASE, schema="qgha:domain")
    assert payload == {"is_domain": True, "reason": "q nonzero and deg f >= 1"}
    bad = run_json(
        capsys, "domain", "--field", "Q", "--q", "2", "--f", "3", "--g", "h",
        schema="qgha:domain",
    )
    assert bad["is_domain"] is False
    assert bad["witness"]["product"] == "0"


def test_orbits(capsys):
    payload = run_json(
        capsys, "orbits", "--field", "GF(5)", "--q", "2", "--f", "h^3", "--g", "h",
        "--k", "4", schema="qgha:orbits",
    )
    assert payload["orbits"] == [
        {"period": 1, "values": ["0"]},
        {"period": 1, "values": ["1"]},
        {"period": 1, "values": ["4"]},
        {"period": 2, "values": ["2", "3"]},
    ]


def test_mu(capsys):
    payload = run_json(
        capsys, "mu", *BASE, "--alpha", "1", "--beta", "3", "--k", "5", schema="qgha:mu"
    )
    assert payload == {
        "period": 1,
        "values": ["1"],
        "anchor": "3",
        "muPeriod": 4,
        "muValues": ["3", "2", "0", "1", "3"],
    }
    infinite = run_json(
        capsys, "mu", "--field", "Q", "--q", "1", "--f", "h^2", "--g", "h",
        "--alpha", "1", "--beta", "3", schema="qgha:mu",
    )
    assert infinite["muPeriod"] == 0


def test_mu_over_word_size_prime_is_fast(capsys):
    # p - 1 = 2 * 100000000000000181, a prime, and 3 is a square mod p, so
    # ord(3) = (p - 1) / 2; factoring p - 1 by trial division took about 27 s
    p = 200000000000000363
    start = time.perf_counter()
    code = main(["mu", "--field", f"GF({p})", "--q", "3", "--f", "h", "--g", "h",
                 "--alpha", "1", "--beta", "3", "--json"])
    assert time.perf_counter() - start < 2
    assert code == 0 and pow(3, (p - 1) // 2, p) == 1
    assert json.loads(capsys.readouterr().out)["muPeriod"] == (p - 1) // 2


def test_nu(capsys):
    payload = run_json(capsys, "nu", *BASE, "--alpha", "1", "--k", "4", schema="qgha:nu")
    assert payload == {"alpha": "1", "values": ["0", "1", "3", "2", "0"]}


def test_build_module(capsys):
    payload = run_json(
        capsys, "build-module", *BASE,
        "--family", "A", "--alpha", "1", "--beta", "3", "--gamma", "2",
        schema="qgha:module",
    )
    assert payload["family"] == "A" and payload["dim"] == 4
    assert payload["mu"] == {"anchor": "3", "period": 4}
    assert payload["matrices"]["X"][0] == ["0", "0", "0", "2"]
    c_payload = run_json(
        capsys, "build-module", *BASE, "--family", "C", "--alpha", "1", "--dim", "4",
        schema="qgha:module",
    )
    assert c_payload["alpha"] == "1"
    assert c_payload["matrices"]["Y"][0] == ["0", "1", "0", "0"]


def test_verify_relations(capsys):
    payload = run_json(
        capsys, "verify-relations", *BASE,
        "--family", "B", "--alpha", "1", "--beta", "3", "--gamma", "3",
        schema="qgha:relations",
    )
    assert payload["ok"] is True
    assert all(all(v == "0" for v in row) for row in payload["residuals"]["yx"])


def test_check_simple(capsys):
    payload = run_json(
        capsys, "check-simple", *BASE, "--family", "C", "--alpha", "1", "--dim", "4",
        "--brute", schema="qgha:simple",
    )
    assert payload["simple"] is True and payload["bruteforce"] is True
    nonsimple = run_json(
        capsys, "check-simple", *BASE, "--family", "C", "--alpha", "0", "--dim", "2",
        "--brute", schema="qgha:simple",
    )
    assert nonsimple["simple"] is False and nonsimple["bruteforce"] is False


def test_check_iso(capsys):
    shifted = run_json(
        capsys, "check-iso", *BASE,
        "--family", "A", "--alpha", "1", "--beta", "3", "--gamma", "2",
        "--family2", "A", "--alpha2", "1", "--beta2", "2", "--gamma2", "2",
        "--brute", schema="qgha:iso",
    )
    assert shifted == {"isomorphic": True, "bruteforce": True}
    twisted = run_json(
        capsys, "check-iso", *BASE,
        "--family", "A", "--alpha", "1", "--beta", "3", "--gamma", "2",
        "--family2", "A", "--alpha2", "1", "--beta2", "3", "--gamma2", "1",
        schema="qgha:iso",
    )
    assert twisted == {"isomorphic": False}


def test_enumerate(capsys):
    payload = run_json(
        capsys, "enumerate", "--field", "GF(5)", "--q", "2", "--f", "h^3", "--g", "h",
        "--dim", "2", schema="qgha:enumerate",
    )
    assert payload["count"] == 4
    assert all(m["family"] == "A" for m in payload["modules"])


def test_enumerate_with_extensions(capsys):
    payload = run_json(
        capsys, "enumerate", "--field", "GF(2)", "--q", "1", "--f", "h+1",
        "--g", "h^2+h+1", "--dim", "1", "--ext-bound", "2", schema="qgha:enumerate",
    )
    assert payload["count"] == 0
    assert len(payload["extensions"]) == 2
    assert all(m["field"].startswith("GF(2^2)") for m in payload["extensions"])


def test_exit_code_2_on_parse_errors(capsys):
    code, _, err = run_cli(capsys, "normalize", *BASE, "x +")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "theta", "--field", "GF(5)", "--q", "2",
                           "--f", "h^^2", "--g", "h", "--k", "1")
    assert code == 2 and "error:" in err


def test_exit_code_2_on_usage_errors(capsys):
    with pytest.raises(SystemExit) as e:
        main(["normalize", "--field", "GF(5)", "--f", "h^2", "--g", "h", "x"])  # no --q
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-verb"])
    assert e.value.code == 2


def test_exit_code_1_on_semantic_errors(capsys):
    code, _, err = run_cli(capsys, "domain", "--field", "GF(4)", "--q", "1",
                           "--f", "h", "--g", "h")
    assert code == 1 and "error:" in err
    # center needs deg f >= 2
    code, _, err = run_cli(capsys, "center", *["--field", "Q", "--q", "2", "--f", "h",
                                               "--g", "h"], "--max-xy", "2", "--max-h", "2")
    assert code == 1
    # enumeration over an infinite field
    code, _, err = run_cli(capsys, "enumerate", "--field", "Q", "--q", "2",
                           "--f", "h^2", "--g", "h", "--dim", "1")
    assert code == 1
    # mu needs q != 0 for its period
    code, _, err = run_cli(capsys, "mu", "--field", "GF(5)", "--q", "0", "--f", "h^2",
                           "--g", "h", "--alpha", "1", "--beta", "3")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["theta", *BASE, "--k", "-1"],
    ["nu", *BASE, "--alpha", "1", "--k", "-1"],
    ["mu", *BASE, "--alpha", "1", "--beta", "3", "--k", "-2"],
    ["orbits", *BASE, "--k", "-1"],
    ["center", *BASE, "--max-xy", "-1", "--max-h", "2"],
    ["center", *BASE, "--max-xy", "2", "--max-h", "-1"],
    ["normalize", *BASE, "--degree-cap", "-5", "x"],
    ["enumerate", *BASE, "--dim", "-1"],
    ["enumerate", *BASE, "--dim", "2", "--ext-bound", "-1"],
    ["build-module", *BASE, "--family", "C", "--alpha", "1", "--dim", "-1"],
    ["check-iso", *BASE, "--family", "C", "--alpha", "1", "--dim", "2",
     "--family2", "C", "--alpha2", "1", "--dim2", "-1"],
    ["check-simple", *BASE, "--family", "C", "--alpha", "1", "--dim", "2", "--brute", "--search-bound", "-1"],
], ids=lambda argv: " ".join(argv[:1] + argv[-4:]))
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    out, err = capsys.readouterr()
    assert e.value.code == 2 and out == ""
    assert "must be nonnegative" in err and "Traceback" not in err


def test_center_refuses_a_window_past_the_cell_budget(capsys):
    # with a constant g every theta_k is constant, so no degree bound stops
    # the window; the dense system would have about 405 million cells
    argv = ["center", "--field", "GF(5)", "--q", "2", "--f", "h^2", "--g", "1", "--max-h", "4"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--max-xy", "3000")
    assert code == 1 and out == "" and "error:" in err
    assert time.perf_counter() - start < 1.0
    code, out, err = run_cli(capsys, *argv, "--max-xy", "20")
    assert code == 0 and out.startswith("center basis within window (dimension 6):"), err


def test_degree_cap_bounds_products(capsys):
    argv = ["normalize", "--field", "Q", "--q", "1", "--f", "h", "--g", "0", "h^20000"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and "error:" in err and out == ""
    code, out, err = run_cli(capsys, *argv, "--degree-cap", "20000")
    assert code == 0 and out == "h^20000\n", err


def test_degree_cap_bounds_f_and_g_powers(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "normalize", "--field", "Q", "--q", "1", "--f", "h^200000",
                             "--g", "0", "x")
    assert code == 1 and "error:" in err and out == ""
    assert time.perf_counter() - start < 1.0
    code, out, err = run_cli(capsys, "normalize", "--field", "GF(7^3)", "--q", "1", "--f", "h",
                             "--g", "h^2000000", "x")
    assert code == 1 and "error:" in err and out == ""
    code, out, err = run_cli(capsys, "normalize", "--field", "Q", "--q", "1", "--f", "h^512",
                             "--g", "0", "x")
    assert code == 0 and out == "x\n", err


def test_degree_cap_bounds_f_and_g_products(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "normalize", "--field", "Q", "--q", "1",
                             "--f", "*".join(["(h^512)"] * 200), "--g", "0", "x")
    assert code == 1 and "error:" in err and out == ""
    assert time.perf_counter() - start < 1.0


def test_oversized_scalars_and_integers_exit_2(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "normalize", "--field", "Q", "--q", "h^200000",
                             "--f", "h", "--g", "0", "x")
    assert code == 2 and "expected a scalar, found a polynomial" in err and out == ""
    assert time.perf_counter() - start < 1.0
    for expr in ("9" * 5000 + "*x", "x^" + "9" * 5000):
        code, out, err = run_cli(capsys, "normalize", "--field", "Q", "--q", "1",
                                 "--f", "h", "--g", "0", expr)
        assert code == 2 and "too long" in err and out == ""


def test_rational_constant_powers_capped_at_digit_limit(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "normalize", "--field", "Q", "--q", "3^10000000",
                             "--f", "h", "--g", "0", "x")
    assert code == 2 and "digits (at offset 2)" in err and out == ""
    assert time.perf_counter() - start < 1.0
    for field, q in (("Q", "3^100"), ("GF(5)", "3^10000000")):
        code, out, err = run_cli(capsys, "normalize", "--field", field, "--q", q,
                                 "--f", "h", "--g", "0", "x")
        assert code == 0 and out == "x\n", err


def test_rational_constant_products_capped_at_digit_limit(capsys):
    # each factor passes the power check; the product would not render
    for expr, offset in (("3^9000*3^9000*x", 6), ("3^9000*x*3^9000", 8), ("x/3^9000/3^9000", 8)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "normalize", "--field", "Q", "--q", "1",
                                 "--f", "h", "--g", "0", expr)
        assert code == 2 and out == "", err
        assert f"product would have more than {sys.get_int_max_str_digits()} digits (at offset {offset})" in err
        assert time.perf_counter() - start < 1.0
    for field, expr in (("Q", "3^4000*3^4000*x"), ("GF(5)", "3^9000*3^9000*x"), ("GF(5)", "3^9000*x*3^9000")):
        code, out, err = run_cli(capsys, "normalize", "--field", field, "--q", "1",
                                 "--f", "h", "--g", "0", expr)
        assert code == 0 and out.startswith("x"), err


@pytest.mark.parametrize("field,beta,limit", [("Q", "2", 1.0), ("GF(4294967311)", "1", 5.0)])
def test_mu_rejects_a_non_periodic_seed_fast(capsys, field, beta, limit):
    # over Q the iterates 0, 1, 2, 5, 26, 677, ... of h^2 + 1 double their digits
    # every step; over GF(4294967311) the walk from 0 repeats after 64710 steps
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mu", "--field", field, "--q", "3", "--f", "h^2+1", "--g", "h",
                             "--alpha", "0", "--beta", beta, "--k", "3")
    assert (code, out, err) == (1, "", "error: 0 is not a periodic point of f\n")
    assert time.perf_counter() - start < limit


def test_center_window_past_degree_cap_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "center", *BASE, "--max-xy", "1", "--max-h", "5000",
                             "--degree-cap", "512")
    assert code == 1 and "center window degree 10000 exceeds cap 512" in err and out == ""
    assert time.perf_counter() - start < 1.0


def test_power_of_non_constant_capped_at_digit_limit(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "normalize", "--field", "Q", "--q", "1", "--f", "h", "--g", "0",
                             "(3^4000*h)^3")
    assert code == 2 and out == "", err
    assert f"power would have more than {sys.get_int_max_str_digits()} digits (at offset 11)" in err
    assert time.perf_counter() - start < 1.0
    code, out, err = run_cli(capsys, "normalize", "--field", "Q", "--q", "1", "--f", "h", "--g", "0",
                             "(3^1000*h)^3")
    assert code == 0 and out.endswith("*h^3\n"), err


def test_unrenderable_rational_is_a_typed_error(capsys):
    # straightening y^3 x^3 multiplies in q^9, about 17,000 digits
    code, out, err = run_cli(capsys, "normalize", "--field", "Q", "--q", "3^4000", "--f", "h", "--g", "0",
                             "y^3*x^3")
    assert code == 1 and out == ""
    assert err == f"error: a rational with more than {sys.get_int_max_str_digits()} digits cannot be rendered\n"
    with pytest.raises(DigitLimitExceeded) as info:
        str(FieldSpec.rationals().element(Fraction(1, 3 ** 10000)))
    assert info.value.code == "digit_limit"


def test_readme_command_lines_exit_0(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(lines) >= 10 and all(argv[0] == "qgha" for argv in lines)
    for argv in lines:
        code, _, err = run_cli(capsys, *argv[1:])
        assert code == 0, (argv, err)


def test_negative_verdicts_still_exit_0(capsys):
    code, out, _ = run_cli(capsys, "check-iso", *BASE,
                           "--family", "C", "--alpha", "1", "--dim", "4",
                           "--family2", "C", "--alpha2", "2", "--dim2", "4")
    assert code == 0 and "isomorphic: False" in out


def test_enumerate_deterministic(capsys):
    args = ["enumerate", "--field", "GF(5)", "--q", "2", "--f", "h^3", "--g", "h",
            "--dim", "4", "--json"]
    outputs = []
    for _ in range(3):
        code = main(list(args))
        outputs.append(capsys.readouterr().out)
        assert code == 0
    assert outputs[0] == outputs[1] == outputs[2]


def _run_fresh_parser(argv):
    """cli.run's steps with a parser built for this call alone; returns (code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        args = cli.build_parser().parse_args(argv)
        payload, lines = cli._HANDLERS[args.verb](cli._build_algebra(args), args)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
    return 0, buf.getvalue()


def test_parser_reused_across_calls(capsys):
    calls = [
        ["enumerate", *BASE, "--dim", "2", "--json"],
        ["nu", *BASE, "--alpha", "1", "--k", "4"],
        ["check-simple", *BASE, "--family", "C", "--alpha", "1", "--dim", "4", "--brute"],
        ["enumerate", *BASE, "--dim", "1"],
    ]
    got = [run_cli(capsys, *argv)[:2] for argv in calls]
    assert got == [_run_fresh_parser(argv) for argv in calls]
    assert cli._parser() is cli._parser()


def _subprocess_env():
    env = dict(os.environ)
    src = str(Path(qgha.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_python_dash_m_matches_main(capsys):
    argv = ["enumerate", "--field", "GF(5)", "--q", "2", "--f", "h^3", "--g", "h", "--dim", "4"]
    for extra in ([], ["--json"]):
        code, out, _ = run_cli(capsys, *argv, *extra)
        proc = subprocess.run([sys.executable, "-m", "qgha", *argv, *extra], capture_output=True,
                              text=True, env=_subprocess_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


def test_reader_closing_the_pipe_exits_1_without_traceback():
    # as in `qgha enumerate ... | head -2`: the JSON is far larger than a pipe
    # buffer, so the writer is still writing when the reader leaves
    argv = ["enumerate", "--field", "GF(2^8)", "--q", "u", "--f", "h^2", "--g", "h", "--dim", "2", "--json"]
    proc = subprocess.Popen([sys.executable, "-m", "qgha", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_subprocess_env())
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head == [b"{\n", b'  "dim": 2,\n']
    assert err == b""


# Q output recorded from the engine that held Q polynomials as one Fraction per
# coefficient: normalize, multiply, theta, center, conformal and domain in text
# and --json, with error exits.  Any change to these bytes is a change of output.
Q_FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "q_cli.json").read_text())


@pytest.mark.parametrize("case", Q_FIXTURE, ids=lambda c: " ".join(c["argv"])[:80])
def test_q_output_is_byte_identical_to_the_fixture(capsys, case):
    assert run_cli(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


# center output over GF(5), GF(7^2) and GF(2^3), recorded from the engine that
# solved the center as one dense system: q = 0, q = 1, roots of unity and q of
# larger order; g = 0, g = h and g = f - q h; windows with max_xy = 0 or
# max_h = 0 among them; text and --json; and the refused windows and inputs.
FF_CENTER_FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "ff_center_cli.json").read_text())


@pytest.mark.parametrize("case", FF_CENTER_FIXTURE, ids=lambda c: " ".join(c["argv"])[:80])
def test_finite_field_center_output_is_byte_identical_to_the_fixture(capsys, case):
    assert run_cli(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def test_enumerate_refuses_past_the_module_budget(capsys):
    # q = 1, f = g = h over GF(2^8) at dimension 2 has about 8.3 million
    # family-A modules; the count is refused before any of them is built
    start = time.monotonic()
    code, out, err = run_cli(capsys, "enumerate", "--field", "GF(2^8)", "--q", "1", "--f", "h", "--g", "h",
                             "--dim", "2")
    assert time.monotonic() - start < 10
    assert (code, out) == (1, "")
    assert err.startswith("error: more than 1048576 simple modules of dimension 2")
