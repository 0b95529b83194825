"""Command-line surface: exit codes, determinism, report round-trips."""

import json
from math import gcd

import pytest

from ppf.cli import main, parse_field_spec
from ppf.errors import ParseError
from ppf.families import check_family, field_for_q_squared, params_from_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_field_spec():
    assert parse_field_spec("p=5,n=2", 1 << 20).order == 25
    assert parse_field_spec("p=2,k=2,n=2", 1 << 20).order == 16
    assert parse_field_spec("p=5,n=2,mod=[2,0,1]", 1 << 20).modulus == (2, 0, 1)
    # without n the modulus applies to the k-level extension
    assert parse_field_spec("p=2,k=3,mod=[1,1,0,1]", 1 << 20).modulus == (1, 1, 0, 1)
    with pytest.raises(ParseError):
        parse_field_spec("n=2", 1 << 20)
    with pytest.raises(ParseError):
        parse_field_spec("p=5,bogus=1", 1 << 20)


def test_verify_pp(capsys):
    code, out, _ = run(capsys, "--field", "p=5,n=2", "verify", "x^3 + 3*(a8)*x^11")
    assert code == 0
    assert "is_permutation: True" in out


def test_verify_literal_a2_coefficient(capsys):
    # 3*g^2 is not of the mu-subgroup shape, but the oracle says this
    # particular polynomial still permutes F_25
    code, out, _ = run(capsys, "--field", "p=5,n=2", "verify", "x^3 + 3*(a2)*x^11")
    assert code == 0


def test_verify_trivial_and_negative(capsys):
    code, _, _ = run(capsys, "--field", "p=2", "verify", "x")
    assert code == 0
    code, _, _ = run(capsys, "--field", "p=5,n=2", "verify", "x^3")
    assert code == 3  # gcd(3, 24) = 3


def test_verify_bad_field(capsys):
    code, _, err = run(capsys, "--field", "p=6", "verify", "x")
    assert code == 1
    assert "NotPrime" in err


def test_verify_bad_poly(capsys):
    code, _, _ = run(capsys, "--field", "p=5,n=2", "verify", "x^^oops")
    assert code == 1


def test_verify_requires_field(capsys):
    code, _, err = run(capsys, "verify", "x")
    assert code == 1 and "--field" in err


def test_table1_clean(capsys):
    code, out, _ = run(capsys, "table1", "--q", "5", "--families", "5,7",
                       "--m-max", "3", "--n-max", "3")
    assert code == 0
    assert "disagreements: 0" in out


def test_table1_disagreement_exit(capsys):
    code, out, _ = run(capsys, "table1", "--q", "7", "--families", "2",
                       "--m-max", "2", "--n-max", "2")
    assert code == 2
    assert "disagree: family=2" in out


def test_table1_bad_family_recorded(capsys):
    code, out, _ = run(capsys, "table1", "--q", "9", "--families", "2,3,4",
                       "--m-max", "2", "--n-max", "2")
    assert code == 0
    assert out.count("BadModulusClass") == 3


def test_table1_empty_q(capsys):
    code, _, err = run(capsys, "table1", "--q", "")
    assert code == 1


def test_table1_json_deterministic(tmp_path, capsys):
    args = ["--format", "json", "--seed", "7", "table1", "--q", "11",
            "--families", "1", "--m-max", "1", "--n-max", "1"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--out", str(p1)] + args) == 0
    assert main(["--out", str(p2)] + args) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    payload = json.loads(b1)
    assert payload["seed"] == 7
    assert payload["disagreements"] == 0
    capsys.readouterr()


def test_table1_report_round_trip(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["--format", "json", "--out", str(out), "table1", "--q", "5",
                 "--families", "7", "--m-max", "2", "--n-max", "2"]) == 0
    payload = json.loads(out.read_bytes())
    for record in payload["reports"][:10]:
        params = params_from_report(record)
        rep = check_family(field_for_q_squared(record["q"]), params)
        assert rep.predicted == record["predicted"]
        assert rep.oracle == record["oracle"]
    capsys.readouterr()


def test_ast_check(capsys):
    code, out, _ = run(capsys, "--field", "p=2,n=2", "--seed", "42",
                       "ast-check", "--trials", "50")
    assert code == 0 and "failures: 0" in out
    code, out, _ = run(capsys, "--field", "p=3,n=2", "--seed", "7",
                       "ast-check", "--trials", "25")
    assert code == 0
    code, _, _ = run(capsys, "--field", "p=3,n=2", "ast-check", "--trials", "0")
    assert code == 1


def test_psi_check(capsys):
    code, out, _ = run(capsys, "--field", "p=2,n=2", "--seed", "5",
                       "psi-check", "--trials", "60")
    assert code == 0 and "failures: 0" in out


def test_dual_basis(capsys):
    code, out, _ = run(capsys, "--field", "p=3,n=2", "dual-basis", "(1,0)", "(0,1)")
    assert code == 0 and "gram_ok: True" in out
    code, out, _ = run(capsys, "--field", "p=3,n=2", "dual-basis", "(1,0)", "(1,0)")
    assert code == 3 and "NotABasis" in out
    code, out, _ = run(capsys, "--field", "p=2,n=2", "dual-basis", "1", "(0,1)")
    assert code == 0


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "--family", "1", "--q", "5",
                       "--m", "3", "--n", "3", "--alpha-idx", "0",
                       "--beta-idx", "1", "--epsilon", "1")
    assert code == 0 and "agree: True" in out
    # the known q = 7 family-2 counterexample: eps = 2w = 2*(4,0) = (1,0)
    code, out, _ = run(capsys, "family", "--family", "2", "--q", "7",
                       "--m", "1", "--n", "1", "--epsilon", "(1,0)")
    assert code == 2
    assert "predicted: True" in out and "oracle: False" in out


def test_lemma31_command(capsys):
    code, out, _ = run(capsys, "lemma31", "--q", "5", "--part", "2")
    assert code == 0 and "ok=True" in out


def test_pentanomial_command(capsys):
    code, out, _ = run(capsys, "pentanomial", "--q", "5", "--Q", "1", "--R", "1",
                       "--S", "1", "--variant", "z1")
    assert code == 0 and "identity_ok: True" in out
    code, out, _ = run(capsys, "pentanomial", "--q", "4", "--Q", "1", "--R", "2",
                       "--S", "2", "--variant", "z1")
    assert code == 2


def test_lappano_command(capsys):
    code, out, _ = run(capsys, "lappano", "--q", "5")
    assert code == 0 and "disagreements=0" in out
    code, out, _ = run(capsys, "lappano", "--q", "13")
    assert code == 2 and "disagreements=1" in out
    code, out, _ = run(capsys, "lappano", "--q", "7", "--a", "3")
    assert code == 0


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PPF_CAP", "20")
    code, _, err = run(capsys, "--field", "p=5,n=2", "verify", "x")
    assert code == 1 and "TooLarge" in err
    monkeypatch.delenv("PPF_CAP")
    code, _, _ = run(capsys, "--field", "p=5,n=2", "verify", "x")
    assert code == 0


def test_cap_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("PPF_CAP", "20")
    code, _, _ = run(capsys, "--cap", "100", "--field", "p=5,n=2", "verify", "x")
    assert code == 0


def test_verify_exponent_beyond_int64(capsys):
    e = 10 ** 24 + 1
    code, out, err = run(capsys, "--field", "p=5,n=2", "verify", f"x^{e}")
    permutes = gcd((e - 1) % 24 + 1, 24) == 1
    assert code == (0 if permutes else 3), err
    assert f"is_permutation: {permutes}" in out


def test_field_over_cap_fails_fast(capsys, deadline):
    with deadline(1.0):
        code, _, err = run(capsys, "--field", "p=1000000000000000003", "verify", "x")
        assert code == 1 and "TooLarge" in err
        code, _, err = run(capsys, "--field", "p=2,n=100000000", "verify", "x")
        assert code == 1 and "TooLarge" in err


@pytest.mark.parametrize("argv", [
    ("lappano", "--q", "1000000000000000003"),
    ("table1", "--q", "1000000000000000003"),
    ("family", "--family", "1", "--q", "1000000000000000003", "--m", "1", "--n", "1",
     "--alpha-idx", "0", "--beta-idx", "1"),
])
def test_q_over_cap_fails_fast(capsys, deadline, argv):
    with deadline(1.0):
        code, _, err = run(capsys, *argv)
    assert code == 1 and "TooLarge" in err


@pytest.mark.parametrize("argv", [
    ("family", "--family", "1", "--q", "5", "--m", "1", "--n", "1",
     "--alpha-idx", "100", "--beta-idx", "1", "--epsilon", "2"),
    # -1 would wrap to index 5, the same element as beta
    ("family", "--family", "1", "--q", "5", "--m", "1", "--n", "1",
     "--alpha-idx", "-1", "--beta-idx", "5", "--epsilon", "2"),
    ("pentanomial", "--q", "5", "--Q", "1", "--R", "1", "--S", "1",
     "--variant", "twisted", "--alpha-idx", "99"),
])
def test_mu_index_out_of_range_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and "BadParams" in err and not out
