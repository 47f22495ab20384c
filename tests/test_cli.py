import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from arithsurf import bundles, errors
from arithsurf.cli import (
    _MAX_GENERIC_TYPE,
    _MAX_JUMP_HEIGHT,
    _MAX_NORMAL_FORM_N,
    _MAX_PRIMES_UP_TO,
    _Parser,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.mark.parametrize(
    "error, status",
    [
        (errors.ProfileInconsistent("h0 disagrees", "h0-pattern"), 3),
        (errors.ParityViolation("odd delta", "profile-parity"), 3),
        (errors.IdentityViolation("delta != 2*h0", "type-h0-identity"), 3),
        (errors.NotLocallyFree("minors share a zero"), 2),
        (errors.WindowExhausted("no stable window"), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_an_internal_inconsistency_exits_3_and_a_domain_error_2(monkeypatch, capsys, error, status):
    # patched into the check that bundle check runs last
    def fail(B):
        raise error

    monkeypatch.setattr(bundles, "check_type_h0", fail)
    code, doc = run_cli(capsys, "bundle", "check", "--generic-type", "0", "--jump", "2:1")
    assert code == status
    assert (doc["error"], doc["message"]) == (type(error).__name__, str(error))
    assert doc.get("stage") == (error.stage if status == 3 else None)


def test_surface_normal_form(capsys):
    code, doc = run_cli(capsys, "surface", "normal-form", "-n", "1", "-f", "0")
    assert code == 0
    assert doc["equation"] == "x0*y0 + x1*y1 = 0"
    assert doc["smooth"] is True
    assert doc["profile"]["generic"] == [0, 1]
    assert doc["meta"]["tool"] == "arithsurf"


def test_surface_normal_form_profile(capsys):
    code, doc = run_cli(capsys, "surface", "normal-form", "-n", "2", "-f", "5*x0*x1")
    assert code == 0
    assert doc["equation"] == "x0^2*y0 + x1^2*y1 + 5*x0*x1*y2 = 0"
    assert doc["profile"]["jumps"] == {"5": [0, 2]}


def test_bundle_build_prescribed(capsys):
    code, doc = run_cli(
        capsys, "bundle", "build", "--generic-type", "0", "--jump", "2:1", "--jump", "3:2"
    )
    assert code == 0
    assert doc["profile"] == {
        "generic": [-1, -1],
        "jumps": {"2": [-2, 0], "3": [-3, 1]},
    }


def test_bundle_check_reports_identities(capsys):
    code, doc = run_cli(capsys, "bundle", "check", "--generic-type", "1", "--jump", "5:3")
    assert code == 0
    assert doc["parity_deltas"] == {"5": 6}
    assert doc["type_h0"] == {"5": {"delta": 6, "fiber_h0": 3}}


def test_bundle_profile_audit_mode(capsys):
    code, doc = run_cli(
        capsys,
        "bundle",
        "profile",
        "-n",
        "2",
        "-f",
        "6*x0*x1",
        "--primes-up-to",
        "13",
    )
    assert code == 0
    audit = doc["audit"]
    assert audit["2"] == [0, 2] and audit["3"] == [0, 2]
    for p in ("5", "7", "11", "13"):
        assert audit[p] == [1, 1]


def test_bundle_round_trip_through_file(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    code, doc = run_cli(
        capsys, "bundle", "build", "--generic-type", "0", "--jump", "2:1",
        "--output", str(out),
    )
    assert code == 0
    code, doc2 = run_cli(capsys, "bundle", "profile", "--bundle", str(out))
    assert code == 0
    assert doc2["profile"] == doc["profile"]
    assert doc2["bundle"]["id"] == doc["bundle"]["id"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bundle", "build", "--generic-type", "1", "--jump", "5:2"],
        ["transform", "factorize", "--generic-type", "1", "--prime", "3", "--twist", "0", "--g", "x0", "--h", "x1^2"],
        ["surface", "normal-form", "-n", "2", "-f", "5*x0*x1"],
        ["delpezzo", "classify", "--points", "1:0:0,0:1:0,0:0:1,1:1:1"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_output_file_equals_stdout_byte_for_byte(tmp_path, capsys, argv):
    out = tmp_path / "doc.json"
    assert main([*argv, "--output", str(out)]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


@pytest.mark.parametrize(
    "content",
    [
        '{"presentation": {"base": "ZZ", "map": {"source_twists": [], "target_twists": [0, -1]}}}',
        '{"presentation": {"base": "ZZ", "map": {"source_twists": ["x"], "target_twists": [], "entries": []}}}',
        '{"base": "ZZ", "map": {"source_twists": [-1], "target_twists": [0], "entries": [[{"degree": 2, "coeffs": ["1"]}]]}}',
        '{"base": "GF(5)", "map": {"source_twists": [], "target_twists": [0, -1], "entries": [[], []]}}',
        "[1, 2]",
        "{",
    ],
)
def test_bundle_document_errors_exit_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, doc = run_cli(capsys, "bundle", "profile", "--bundle", str(path))
    assert code == 2
    assert doc["error"] == "InvalidInput"


def test_missing_bundle_file_exits_2(tmp_path, capsys):
    code, doc = run_cli(capsys, "bundle", "check", "--bundle", str(tmp_path / "absent.json"))
    assert code == 2
    assert doc["error"] == "InvalidInput"


def test_transform_apply_and_errors(capsys):
    code, doc = run_cli(
        capsys,
        "transform",
        "apply",
        "--generic-type",
        "0",
        "--prime",
        "2",
        "--twist",
        "0",
        "--g",
        "x0",
        "--h",
        "x1",
    )
    assert code == 0
    assert doc["profile"]["jumps"] == {"2": [-2, 0]}
    # non-coprime pair: domain error, exit 2, error name in the document
    code, doc = run_cli(
        capsys,
        "transform",
        "apply",
        "--generic-type",
        "0",
        "--prime",
        "3",
        "--twist",
        "1",
        "--g",
        "x0^2",
        "--h",
        "x0*x1",
    )
    assert code == 2
    assert doc["error"] == "NotSurjective"


def test_transform_apply_on_a_normal_form(capsys):
    # one form per generator of coker(x0, x1, 0): the row kills the column,
    # and the kernel 3*O(1) + O is again O(1) + O
    code, doc = run_cli(
        capsys, "transform", "apply", "-n", "1", "-f", "0",
        "--prime", "3", "--twist", "1", "--row", "x1;-x0;0",
    )
    assert code == 0
    assert doc["source"]["presentation"]["map"]["target_twists"] == [0, 0, 0]
    assert doc["profile"] == {"generic": [0, 1], "jumps": {}}


def test_transform_factorize(capsys):
    args = ["--generic-type", "1", "--prime", "3", "--twist", "0", "--g", "x0", "--h", "x1^2"]
    code, doc = run_cli(capsys, "transform", "factorize", *args)
    assert code == 0
    rec = doc["factorization"]
    assert rec["p"] == "3"
    assert rec["center_V"]["degree"] == 1
    code, applied = run_cli(capsys, "transform", "apply", *args)
    assert code == 0
    assert (rec["source"], rec["target"]) == (applied["source"]["id"], applied["bundle"]["id"])


def test_transform_factorize_refuses_a_quotient_that_is_not_onto(capsys):
    # x0, x0 vanish together at x0 = 0: validated once, by the transformation
    code, doc = run_cli(
        capsys, "transform", "factorize", "--generic-type", "0",
        "--prime", "2", "--twist", "0", "--g", "x0", "--h", "x0",
    )
    assert code == 2
    assert (doc["error"], doc["degree"]) == ("NotSurjective", 4)


def test_delpezzo_classify(capsys):
    code, doc = run_cli(
        capsys, "delpezzo", "classify", "--points", "1:0:0,0:1:0,0:0:1,1:1:1"
    )
    assert code == 0
    assert doc["model"] == "blowup_P2_4pts" and doc["K2"] == 5


def test_delpezzo_domain_error(capsys):
    code, doc = run_cli(
        capsys, "delpezzo", "classify", "--points", "1:0:0,0:1:0,0:0:1,2:3:5"
    )
    assert code == 2
    assert doc["error"] == "NotGeneralPosition"
    assert doc["witness"]["kind"] == "triple"


def test_delpezzo_five_points_mod2(capsys):
    code, doc = run_cli(
        capsys, "delpezzo", "classify", "--points",
        "1:0:0,0:1:0,0:0:1,1:1:1,3:5:7",
    )
    assert code == 2
    assert doc["error"] == "TooManyPoints"
    assert doc["witness"]["primes"] in ([], ["2"])


def test_usage_error_exit_code(capsys):
    # malformed flag payload: reported as usage, exit 1
    code = main(["bundle", "build", "--generic-type", "0", "--jump", "nonsense"])
    assert code == 1
    capsys.readouterr()
    # argparse-level failure: unknown option, also exit 1
    with pytest.raises(SystemExit) as exc:
        main(["bundle", "build", "--no-such-flag"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv, flag, expect",
    [
        (
            ["surface", "normal-form", "-n", "2"], ["-f", "-5*x0*x1"],
            lambda doc: doc["equation"] == "x0^2*y0 + x1^2*y1 - 5*x0*x1*y2 = 0",
        ),
        (
            ["delpezzo", "check"], ["--points", "-1:2:3,0:1:0"],
            lambda doc: doc["points"] == ["1:-2:-3", "0:1:0"] and doc["verdict"]["ok"],
        ),
        (
            ["delpezzo", "check"], ["--poi", "-1:2:3,0:1:0"],
            lambda doc: doc["points"] == ["1:-2:-3", "0:1:0"] and doc["verdict"]["ok"],
        ),
        (
            ["transform", "apply", "--generic-type", "0", "--prime", "3", "--twist", "0", "--h", "x1"],
            ["--g", "-x0"],
            lambda doc: doc["quotient"]["g"]["coeffs"] == ["2", "0"],
        ),
        (
            ["bundle", "build", "--generic-type", "0"], ["--jump", "-2:1"],
            lambda doc: doc["error"] == "CompositeModulus",
        ),
    ],
)
def test_option_values_may_begin_with_minus(capsys, argv, flag, expect):
    # the token after a value-taking option is its value, as in flag=value
    code, doc = run_cli(capsys, *argv, *flag)
    assert (code, doc) == run_cli(capsys, *argv, "=".join(flag))
    assert code in (0, 2) and expect(doc)


@pytest.mark.parametrize(
    "full, abbreviated",
    [
        (
            ["delpezzo", "check", "--points", "-1:2:3,0:1:0"],
            ["delpezzo", "check", "--poi", "-1:2:3,0:1:0"],
        ),
        (
            ["bundle", "profile", "--generic-type", "0", "--jump", "-2:1", "--primes-up-to", "5"],
            ["bundle", "profile", "--gen", "0", "--ju", "-2:1", "--pri", "5"],
        ),
        (
            ["transform", "apply", "--generic-type", "0", "--prime", "3", "--twist", "-1", "--row", "-1;0"],
            ["transform", "apply", "--ge", "0", "--pr", "3", "--tw", "-1", "--ro", "-1;0"],
        ),
    ],
)
def test_unique_prefixes_of_long_options_take_minus_values(capsys, full, abbreviated):
    code, doc = run_cli(capsys, *full)
    assert code in (0, 2)
    assert (code, doc) == run_cli(capsys, *abbreviated)


def test_ambiguous_prefix_is_a_usage_error(capsys):
    parser = _Parser(prog="probe")
    parser.add_argument("--prime")
    parser.add_argument("--primes-up-to")
    assert parser.parse_args(["--primes", "-3"]).primes_up_to == "-3"
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--pri", "-3"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage error: ambiguous option: --pri could match")


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["bundle", "build", "--generic-type", "{}"], _MAX_GENERIC_TYPE),
        (["bundle", "build", "--generic-type", "0", "--jump", "2:{}"], _MAX_JUMP_HEIGHT),
        (["bundle", "profile", "-n", "{}", "-f", "0"], _MAX_NORMAL_FORM_N),
        (["surface", "normal-form", "-n", "{}"], _MAX_NORMAL_FORM_N),
        (["bundle", "profile", "--generic-type", "0", "--primes-up-to", "{}"], _MAX_PRIMES_UP_TO),
    ],
)
def test_sizes_past_their_limit_are_usage_errors(capsys, argv, limit):
    code, doc = run_cli(capsys, *(a.format(limit) for a in argv))
    assert code == 0 and "error" not in doc
    try:
        code = main([a.format(limit + 1) for a in argv])
    except SystemExit as exc:  # refused by the argument parser
        code = exc.code
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("usage error:")
    assert f"{limit + 1} exceeds the limit {limit}" in captured.err


def test_the_audit_key_appears_exactly_when_primes_up_to_is_given(capsys):
    argv = ["bundle", "profile", "--generic-type", "0", "--jump", "3:1"]
    assert "audit" not in run_cli(capsys, *argv)[1]
    for bound, primes in (("0", []), ("1", []), ("2", ["2"]), ("5", ["2", "3", "5"])):
        code, doc = run_cli(capsys, *argv, "--primes-up-to", bound)
        assert code == 0 and sorted(doc["audit"]) == primes
    for bound in ("-1", "-7"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--primes-up-to", bound])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and f"{bound} is negative" in captured.err


@pytest.mark.parametrize("form, factor", [("x0^-1*x1^4", "x0^"), ("x0^4*y1", "y1"), ("x0x1^3", "x0x1^3")])
def test_a_malformed_factor_is_named(capsys, form, factor):
    assert main(["surface", "normal-form", "-n", "4", "-f", form]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: malformed factor {factor!r}\n"


def test_determinism(capsys):
    code1 = main(["surface", "normal-form", "-n", "2", "-f", "3*x0*x1"])
    out1 = capsys.readouterr().out
    code2 = main(["surface", "normal-form", "-n", "2", "-f", "3*x0*x1"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_selftest_subset(capsys):
    code = main(["selftest", "--only", "3", "--only", "7"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 0
    assert doc["passed"] is True
    assert [c["number"] for c in doc["criteria"]] == [3, 7]
    assert "criterion 3" in captured.err


def test_selftest_stdout_is_byte_identical_across_runs(capsys):
    outs = []
    for _ in range(2):
        assert main(["selftest", "--only", "3"]) == 0
        captured = capsys.readouterr()
        outs.append(captured.out)
        assert re.search(r"\[PASS\] criterion 3: .* \(\d+\.\ds\)", captured.err)
    assert outs[0] == outs[1]
    assert "seconds" not in json.loads(outs[0])["criteria"][0]


@pytest.mark.parametrize("argv", [
    ["bundle", "build", "--generic-type", "1", "--jump", "5:2"],
    ["delpezzo", "classify", "--points", "1:0:0,0:1:0,0:0:1,2:3:5"],  # a domain error, exit 2 when read
])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "arithsurf.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert b"Traceback" not in done.stderr
    assert done.stderr == b""


def test_selftest_unknown_criterion_is_a_usage_error(capsys):
    code = main(["selftest", "--only", "3", "--only", "99"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage error: no criterion 99")
    assert "1, 2, 3, 4, 5, 6, 7, 8" in captured.err


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code = main(["bundle", "build", "--generic-type", "1", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write --output {target}")
    assert not target.exists()
