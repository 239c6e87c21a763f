"""Command-line verbs: payloads, schemas, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import random
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
from qgha.fields import FieldElement, FieldSpec
from qgha.modules import build_matrix_rep, enumerate_simples


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


def test_q_orbits_with_a_large_constant_term_answer_or_fail_fast(capsys):
    # the fixed points are the rational roots of f - h; its constant term is
    # factored, not trial-divided up to its square root (4.2 s at 10^16)
    argv = ["orbits", "--field", "Q", "--q", "2", "--g", "h", "--k", "1"]
    start = time.perf_counter()
    assert run_cli(capsys, *argv, "--f", "h^2 + 10^16") == (0, "0 orbit(s) with period <= 1:\n", "")
    assert time.perf_counter() - start < 0.5
    # two primes near 10^15 are not split within the rho budget
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--f", "h^2 + 1000000000000037*1000000000000091")
    assert time.perf_counter() - start < 10
    assert (code, out) == (1, "") and err.startswith("error: ") and err.endswith(" rho steps\n")


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


def test_enumerate_past_the_field_squared_is_fast(capsys):
    # nu never vanishes first past |F|^2 steps; this walked all 10^12 steps for every alpha
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", *BASE, "--dim", "1000000000000")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "0 simple module(s) of dimension 1000000000000:\n", "")


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
], ids=lambda argv: " ".join(argv[:1] + argv[-4:]))
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    out, err = capsys.readouterr()
    assert e.value.code == 2 and out == ""
    assert "must be nonnegative" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["check-simple", *BASE, "--family", "C", "--alpha", "1", "--dim", "2", "--brute", "--search-bound", "5"],
    ["check-iso", *BASE, "--family", "C", "--alpha", "1", "--dim", "2",
     "--family2", "C", "--alpha2", "1", "--dim2", "2", "--brute", "--search-bound", "5"],
], ids=lambda argv: argv[0])
def test_the_bruteforce_budgets_are_not_options(capsys, argv):
    # the brute-force oracles are bounded by module budgets; no flag sets them
    with pytest.raises(SystemExit) as e:
        main(argv)
    out, err = capsys.readouterr()
    assert e.value.code == 2 and out == ""
    assert "unrecognized arguments: --search-bound 5" in err and "Traceback" not in err


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
        out = cli._HANDLERS[args.verb](cli._build_algebra(args), args)
        if args.json:
            print(cli._dumps(out))
        else:
            for line in out:
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


# `python -m qgha` under a 1 GiB address-space limit, set in the child itself
# (a preexec_fn is unsafe in a parent that has threads)
_QGHA_UNDER_1GIB = ("import resource, runpy, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                    "sys.argv[0] = 'qgha'; runpy.run_module('qgha', run_name='__main__')")


def _run_under_1gib(argv):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _QGHA_UNDER_1GIB, *argv], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    return proc, time.perf_counter() - start


@pytest.mark.parametrize("argv,code,out,err", [
    (["theta", "--field", "GF(4294967311^2)", "--q", "2", "--f", "h^2", "--g", "h", "--k", "2"],
     0, "theta_2 = h^2 + 2*h\n", ""),
    (["normalize", "--field", "GF(1009^4)", "--q", "2", "--f", "h", "--g", "h", "x"], 0, "x\n", ""),
    (["mu", "--field", "GF(7^10)", "--q", "u", "--f", "h^2+u", "--g", "h", "--alpha", "0", "--beta", "1",
      "--k", "3"], 1, "", "error: 0 is not a periodic point of f\n"),
])
def test_extension_fields_past_the_old_trial_divisor_budget_run(argv, code, out, err):
    # trial division refused these fields: finding a modulus needed more than 4096 divisors
    proc, seconds = _run_under_1gib(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert seconds < 2


@pytest.mark.parametrize("field", [
    "GF(2^51)", "GF(3^100)", "GF(1009^24)", "GF(4294967311^16)",
    "GF(2^51),mod=u^51+u^6+u^3+u+1", "GF(3^100),mod=u^100+u+2", "GF(2^100000000),mod=u^100000000+u+1",
    # a modulus past the extension degree is refused while it is parsed
    "GF(2^3),mod=u^30000000+1", "GF(2^3),mod=u^300000000+1", "GF(2^3),mod=(u+1)^300000000",
])
def test_fields_past_the_rabin_budget_and_oversized_moduli_fail_fast(field):
    # parsed in full, the last three took 14 s to be refused, died with MemoryError after 17 s and ran past 120 s
    proc, seconds = _run_under_1gib(["normalize", "--field", field, "--q", "1", "--f", "h", "--g", "h", "x"])
    assert seconds < 1
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    if "^3)" in field:
        assert proc.stderr.startswith("error: power degree 300") and proc.stderr.endswith("00 exceeds cap 3\n")
    else:
        assert proc.stderr.startswith("error: Rabin's test in degree")


@pytest.mark.parametrize("argv", [
    ["orbits", "--field", "GF(4294967311)", "--q", "2", "--f", "h^2", "--g", "h", "--k", "1"],
    ["enumerate", "--field", "GF(4294967311)", "--q", "2", "--f", "h^2", "--g", "h", "--dim", "1"],
])
def test_point_tables_past_their_budget_fail_fast(argv):
    # these tabulated f at every point of the field until they were killed
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _QGHA_UNDER_1GIB, *argv], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: tabulating over GF(4294967311) takes")


_NU_Q = ["nu", "--field", "Q", "--q", "2", "--f", "h^2+1", "--g", "h", "--alpha", "0"]


@pytest.mark.parametrize("argv,code,size,digest", [
    # nu(0..16) renders, though f^[16](0), which no value uses, is past the digit limit
    ([*_NU_Q, "--k", "16"], 0, 5853, "37eb0153c52622866ff435b6c7e67f8f3e7d1f1dd80660d803a2f4543b1afb96"),
    ([*_NU_Q, "--k", "28"], 1, 0, None),
    ([*_NU_Q, "--k", "40"], 1, 0, None),
    (["mu", "--field", "Q", "--q", "2", "--f", "h", "--g", "1", "--alpha", "0", "--beta", "0",
      "--k", "60000"], 1, 0, None),
])
def test_q_values_past_the_digit_limit_fail_fast(argv, code, size, digest):
    # these grew rationals for seconds, or without end (nu --k 40), before the
    # renderer refused the first value past the limit
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _QGHA_UNDER_1GIB, *argv], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert time.perf_counter() - start < 1
    assert (proc.returncode, len(proc.stdout)) == (code, size)
    if digest:
        assert (hashlib.sha256(proc.stdout.encode()).hexdigest(), proc.stderr) == (digest, "")
    else:
        limit = sys.get_int_max_str_digits()
        assert proc.stderr == f"error: a rational with more than {limit} digits cannot be rendered\n"


@pytest.mark.parametrize("field", ["GF(2305843009213693951)", "Q"])
def test_one_dimensional_modules_are_simple_by_brute_force_over_any_field(capsys, field):
    code, out, err = run_cli(capsys, "check-simple", "--field", field, "--q", "2", "--f", "h", "--g", "h",
                             "--family", "C", "--alpha", "0", "--dim", "1", "--brute")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "brute-force agrees: True"


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


# Extension-field output recorded from the engine that multiplied and inverted
# GF(p^k) elements by packed products and extended Euclid, before the log and
# antilog tables: enumerate over GF(2^8) (the perfbench argvs), GF(7^2),
# GF(3^3) and an explicit modulus, and over GF(5) with --ext-bound 2 and 3;
# build-module, orbits, mu, nu, normalize, multiply and theta over GF(7^2) and
# GF(2^8); text and --json, with error exits.  Stdout past 4 KB is kept as its
# sha256 and length.
EXT_FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "ext_cli.json").read_text())


@pytest.mark.parametrize("case", EXT_FIXTURE, ids=lambda c: " ".join(c["argv"])[:80])
def test_extension_field_output_is_byte_identical_to_the_fixture(capsys, case):
    code, out, err = run_cli(capsys, *case["argv"])
    if "stdout_sha256" in case:
        out = {"sha256": hashlib.sha256(out.encode()).hexdigest(), "len": len(out)}
        expected = {"sha256": case["stdout_sha256"], "len": case["stdout_len"]}
    else:
        expected = case["stdout"]
    assert (code, out, err) == (case["code"], expected, case["stderr"])


def test_enumerate_refuses_past_the_module_budget(capsys):
    # q = 1, f = g = h over GF(2^8) at dimension 2 has about 8.3 million
    # family-A modules; the count is refused before any of them is built
    start = time.monotonic()
    code, out, err = run_cli(capsys, "enumerate", "--field", "GF(2^8)", "--q", "1", "--f", "h", "--g", "h",
                             "--dim", "2")
    assert time.monotonic() - start < 10
    assert (code, out) == (1, "")
    assert err.startswith("error: more than 1048576 simple modules of dimension 2")


def test_bruteforce_in_dimension_30_answers_at_once():
    # a scan of the 2^30 - 1 lines of GF(2)^30 is out of reach, but Norton's
    # test needs one line, ker x (k = 1, so no kernel budget is read), and
    # one dual spin
    argv = ["check-simple", "--field", "GF(2)", "--q", "1", "--f", "h", "--g", "0", "--family", "C",
            "--alpha", "0", "--dim", "30", "--brute"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _QGHA_UNDER_1GIB, *argv], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "brute-force agrees: True"


def test_bruteforce_checks_the_dimension_13_heisenberg_module(capsys):
    # U(h_3) = H_1(h, h) over GF(13): |F|^dim = 13^13 is past the kernel budget, |F|^k = 13 is not
    code, out, err = run_cli(capsys, "check-simple", "--field", "GF(13)", "--q", "1", "--f", "h", "--g", "h",
                             "--family", "A", "--alpha", "1", "--beta", "0", "--gamma", "1", "--brute")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["simple: True (family A modules with periodic data are simple)",
                                "brute-force agrees: True"]


def test_bruteforce_with_many_h_eigenvalues_answers_or_fails_fast():
    # with f = h + 1 the module has p distinct h-eigenvalues; the scan stops
    # at the first one-dimensional kernel, and p + 2 candidate matrices past
    # the cell budget are refused before the first is built
    def brute(p):
        argv = ["check-simple", "--field", f"GF({p})", "--q", "1", "--f", "h + 1", "--g", "h", "--family", "A",
                "--alpha", "0", "--beta", "1", "--gamma", "1", "--brute"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _QGHA_UNDER_1GIB, *argv], capture_output=True, text=True,
                              env=_subprocess_env(), timeout=60)
        assert time.perf_counter() - start < 2
        return proc.returncode, proc.stdout.splitlines()[-1:], proc.stderr

    assert brute(211) == (0, ["brute-force agrees: True"], "")
    assert brute(1009) == (1, [], "error: the kernels of x, y and h - c for 1009 values c take 1029279891 cells, "
                                  "past the budget of 16777216\n")


def test_build_module_past_the_cell_budget_fails_before_it_allocates():
    # three dense 20000 x 20000 matrices died with MemoryError under 1 GiB
    argv = ["build-module", "--field", "GF(5)", "--q", "2", "--f", "h^2", "--g", "h", "--family", "C",
            "--alpha", "0", "--dim", "20000"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _QGHA_UNDER_1GIB, *argv], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: the matrices of a 20000-dimensional module take 1200000000 cells, "
                           "past the budget of 16777216\n")


def test_bruteforce_isomorphism_past_the_cell_budget_fails_before_it_allocates(capsys):
    # the intertwiner system of two p-dimensional U(h_3) modules over GF(p) has
    # 3 p^4 dense cells: p = 47 fits the budget, p = 89 took 9 s and 1.17 GB
    def argv(p):
        return ["check-iso", "--field", f"GF({p})", "--q", "1", "--f", "h", "--g", "h", "--brute",
                "--family", "A", "--alpha", "1", "--beta", "0", "--gamma", "1",
                "--family2", "A", "--alpha2", "1", "--beta2", "0", "--gamma2", "1"]

    assert run_cli(capsys, *argv(47)) == (0, "isomorphic: True\nbrute-force agrees: True\n", "")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _QGHA_UNDER_1GIB, *argv(89)], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: the intertwiner system of two 89-dimensional modules takes 188226723 cells, "
                           "past the budget of 16777216\n")


@pytest.mark.parametrize("argv,terms", [
    (["nu", *BASE, "--alpha", "1", "--k", "300000000"], 300000000),
    (["mu", *BASE, "--alpha", "1", "--beta", "1", "--k", "300000000"], 300000000),
    (["theta", "--field", "GF(5)", "--q", "2", "--f", "h + 1", "--g", "h", "--k", "100000000"], 100000000),
    # the one orbit of h + 1 has period 65537 and its anchors period 65536; the
    # drift of the modules of dimension 65537 * 65536 died with MemoryError
    (["enumerate", "--field", "GF(65537)", "--q", "3", "--f", "h + 1", "--g", "h", "--dim", "4295032832"],
     4295032833),
], ids=["nu", "mu", "theta", "enumerate"])
def test_sequences_past_the_length_budget_fail_fast(argv, terms):
    # the first three ran past 20 s under 1 GiB before --k had a budget
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _QGHA_UNDER_1GIB, *argv], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {terms} terms of a sequence are past the length budget of 65536\n"


def test_enumerate_refuses_a_long_nu_walk_before_it_starts():
    # n = |F|^2 - 1 is the last dimension whose nu-walk is not skipped; the
    # walk of |F| n steps ran past 30 s before it had a budget
    argv = ["enumerate", "--field", "GF(65537)", "--q", "3", "--f", "h + 1", "--g", "h", "--dim", "4295098368"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _QGHA_UNDER_1GIB, *argv], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: the nu-walk over GF(65537) takes up to 281487861743616 steps, "
                           "more than the budget 4194304\n")


_NU_G1 = ["nu", "--field", "Q", "--q", "2", "--f", "h^2 + 1", "--g", "1", "--alpha", "0"]


def test_nu_with_constant_g_walks_no_orbit_point(capsys):
    # nu(i) = 2^i - 1 reads no f^[i](0); the points 0, 1, 2, 5, 26, 677, ...
    # double their digits every step, and --k 30 did not finish in 20 s
    for k in range(23):
        code, out, err = run_cli(capsys, *_NU_G1, "--k", str(k))
        assert (code, err) == (0, "")
        assert out == "nu(0..{}) = {}\n".format(k, ", ".join(str(2 ** i - 1) for i in range(k + 1)))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _QGHA_UNDER_1GIB, *_NU_G1, "--k", "40", "--json"],
                          capture_output=True, text=True, env=_subprocess_env(), timeout=60)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"alpha": "0", "values": [str(2 ** i - 1) for i in range(41)]}


def _handler_output(argv):
    args = cli._parser().parse_args(argv)
    return cli._HANDLERS[args.verb](cli._build_algebra(args), args)


@pytest.mark.parametrize("fixture", ["q_cli.json", "ff_center_cli.json", "ext_cli.json"])
def test_json_writer_matches_json_dumps_on_fixture_payloads(fixture):
    """Module documents against json.dumps of their parsed text; every other payload as it stands."""
    cases = json.loads((Path(__file__).parent / "fixtures" / fixture).read_text())
    argvs = [case["argv"] for case in cases if "--json" in case["argv"] and case["code"] == 0]
    assert argvs
    for argv in argvs:
        payload = _handler_output(argv)
        text = cli._dumps(payload)
        if argv[0] in ("enumerate", "build-module"):  # module documents are written from their bands
            assert text == json.dumps(json.loads(text), indent=2)
        else:
            assert text == json.dumps(payload, indent=2)


def _random_document(rng, depth=0):
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -2 ** 70, 10 ** 40, rng.randrange(-10 ** 6, 10 ** 6)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return {_random_text(rng): _random_document(rng, depth + 1) for _ in range(rng.randrange(4))}
    if kind == 5:  # a list of strings, the writer's one-join case
        return [_random_text(rng) for _ in range(rng.randrange(4))]
    return [_random_document(rng, depth + 1) for _ in range(rng.randrange(4))]


def _random_text(rng):
    alphabet = ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f', 'é', 'λ', ' ',
                '\ud800', '😀']
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))


def test_json_writer_matches_json_dumps_on_random_documents():
    rng = random.Random(22)
    for _ in range(3000):
        doc = _random_document(rng)
        assert cli._dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("field, qs", [("GF(5)", ("2", "4")), ("GF(7)", ("3", "6")), ("GF(2^2)", ("u", "1"))])
def test_module_documents_match_the_dense_matrices(capsys, field, qs):
    """build-module --json writes the rows of build_matrix_rep, each entry as str(FieldElement)."""
    seen = set()
    for q, f, g in [(q, f, g) for q in qs for f in ("h^2", "h^3") for g in ("h", "h^2 + 1")]:
        algebra = ["--field", field, "--q", q, "--f", f, "--g", g]
        alg = cli._build_algebra(cli._parser().parse_args(["theta", *algebra, "--k", "0"]))
        for n in range(1, 5):
            for spec in enumerate_simples(alg, n):
                if spec.family == "C":
                    flags = ["--alpha", str(spec.alpha), "--dim", str(n)]
                else:
                    flags = ["--alpha", str(spec.orbit.values[0]), "--beta", str(spec.mu.anchor),
                             "--gamma", str(spec.gamma)]
                doc = run_json(capsys, "build-module", *algebra, "--family", spec.family, *flags)
                rep = build_matrix_rep(alg, spec)
                dense = {name: [[str(FieldElement(alg.field, v)) for v in row] for row in m.rows]
                         for name, m in (("X", rep.x), ("Y", rep.y), ("H", rep.h))}
                assert (doc["family"], doc["dim"], doc["matrices"]) == (spec.family, n, dense), spec.describe()
                seen.add((spec.family, n > 1))
    assert seen == {(family, big) for family in "ABC" for big in (False, True)}


def test_enumerate_json_with_empty_lists_is_what_json_dumps_prints(capsys):
    code, text, _ = run_cli(capsys, "enumerate", *BASE, "--dim", "3", "--ext-bound", "2", "--json")
    doc = json.loads(text)
    assert (code, doc["count"], doc["modules"], doc["extensions"]) == (0, 0, [], [])
    assert text == json.dumps(doc, indent=2) + "\n"


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_enumerate_builds_only_the_output_it_prints(capsys, monkeypatch):
    argv = ["enumerate", "--field", "GF(5)", "--q", "2", "--f", "h^3", "--g", "h", "--dim", "4", "--ext-bound", "2"]
    bands = _count_calls(monkeypatch, cli, "_bands")
    reps = _count_calls(monkeypatch, cli, "build_matrix_rep")
    entries = _count_calls(monkeypatch, cli.Matrix, "__getitem__")
    describes = _count_calls(monkeypatch, cli.ModuleSpec, "describe")
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0 and (len(bands), len(reps), len(entries)) == (0, 0, 0)
    assert len(describes) == len(text.splitlines()) - 2 > 0
    del describes[:]
    payload = run_json(capsys, *argv, "--json")
    assert (len(describes), len(entries), len(reps)) == (0, 0, 0)
    assert len(bands) == len(payload["modules"]) + len(payload["extensions"]) > 0
