"""Command-line surface: exit codes, determinism, report round-trips."""

import hashlib
import json
from math import gcd

import pytest

from ppf import cli
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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_written_in_slices_is_unchanged(tmp_path, capsys, monkeypatch, fmt):
    # long lines are written in slices; the bytes must not depend on the slice size
    args = ["--format", fmt, "--seed", "3", "table1", "--q", "4", "--families", "2",
            "--m-max", "2", "--n-max", "2"]
    whole, sliced = tmp_path / "whole", tmp_path / "sliced"
    code = main(["--out", str(whole)] + args)
    monkeypatch.setattr(cli, "_WRITE_SLICE", 7)
    assert main(["--out", str(sliced)] + args) == code
    assert sliced.read_bytes() == whole.read_bytes()
    assert main(args) == code
    assert capsys.readouterr().out.encode() == whole.read_bytes()
    if fmt == "json":
        data = whole.read_bytes()
        assert data.endswith(b"}\n") and len(data) > 7
        assert data == (json.dumps(json.loads(data), sort_keys=True,
                                   separators=(",", ":")) + "\n").encode()


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


@pytest.mark.parametrize("argv", [("ast-check",), ("psi-check",), ("dual-basis", "1")])
def test_base_field_commands_refuse_a_prime_field(capsys, deadline, argv):
    with deadline(1.0):
        code, out, err = run(capsys, "--field", "p=5", *argv)
    assert code == 1 and not out
    assert err == "error: BadParams: needs an extension field, got F_5\n"
    assert "Traceback" not in err


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


@pytest.mark.parametrize("argv", [
    ("lemma31", "--q", "5", "--part", "1", "--alpha", "2"),    # 2^6 = 4 in F_25
    ("lemma31", "--q", "5", "--part", "2", "--alpha", "(4,0)"),
])
def test_lemma31_alpha_outside_mu_or_part_is_a_usage_error(capsys, deadline, argv):
    with deadline(1.0):
        code, out, err = run(capsys, *argv)
    assert code == 1 and "BadParams" in err and not out


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


# sha256 of `ppf --seed S --format json ...` output, with the expected exit
# code.  For a fixed seed the JSON output is byte-identical across internal
# changes: verdicts, witnesses and every other byte.
PINNED_OUTPUTS = [
    (("0", "family", "--family", "1", "--q", "4", "--m", "3", "--n", "3",
      "--alpha-idx", "0", "--beta-idx", "1", "--epsilon", "1"), 0,
     "ea66a03f02a08a4141a9f728c0505f3e48d585a5d9102c73f1fa01e69bf21d21"),
    (("7", "family", "--family", "2", "--q", "7", "--m", "1", "--n", "1",
      "--epsilon", "(1,0)"), 2,
     "59596b4c25516bd34717e4beb85e795b98b6a7c10cb041513a49ede75b2368f2"),
    (("0", "family", "--family", "3", "--q", "7", "--m", "2", "--n", "2",
      "--epsilon", "1"), 0,
     "0f84af2aa35304c085a2f9f06eeffefea4e9fc6634e3c73bb695d9a435226855"),
    (("7", "family", "--family", "5", "--q", "8", "--m", "3", "--n", "3",
      "--epsilon", "1"), 0,
     "5aa1b935da78a7f59d9ab92c5f95a033882f09b1f2308e793fa650977ef7fdba"),
    (("0", "family", "--family", "1", "--q", "13", "--m", "2", "--n", "2",
      "--alpha-idx", "3", "--beta-idx", "5", "--epsilon", "2"), 0,
     "0dfc0c6a9b0bc93b4995fb79f09e01a4e99428f0ccb24dbab7230c46815cdeee"),
    (("7", "family", "--family", "4", "--q", "13", "--m", "1", "--n", "3",
      "--epsilon", "2", "--omega", "2"), 0,
     "c90289f97a66d4d9d6b58452008148ef4c5ebddd1f9f5564ebef3946b543dda8"),
    (("0", "--field", "p=2,k=4,n=2", "verify", "(a3)*x^14"), 0,
     "acd59a02e4870c82c44a2a28b5c7fe76f0794f9c2d2f08f3848835bdb9912501"),
    (("7", "--field", "p=2,k=4,n=2", "verify", "x^3 + (a5)*x^16"), 3,
     "07a3c72b21db8f4ab4c632b3dc0938b1e95cb93536c63dcbb235f2008ab9774e"),
    (("0", "--field", "p=3,n=2", "ast-check", "--trials", "20"), 0,
     "f0659d2c353932e5a6b316670d8aee2db38a1dca012c7d57eb13e5e790838216"),
    (("7", "--field", "p=2,n=3", "ast-check", "--trials", "20"), 0,
     "a7247498c97f20d12bb646ce02f9d85efb72c043b5bdfb803b73efdf0c0070e1"),
    (("7", "--field", "p=3,n=2", "psi-check", "--trials", "20"), 0,
     "fd0065b40d0137a59c530e00f057086dc2cb299d11473f4f3ca38f41485be6e9"),
    (("0", "--field", "p=2,n=3", "psi-check", "--trials", "20"), 0,
     "99f462930991fbed82e054c72a76c9783b742ced9f8f7c541da6714591325b97"),
    (("0", "lappano", "--q", "13"), 2,
     "d4c84450fd403f955eb05c112e579ba7c61c10b33bcb26e0605846961ff00cc6"),
    (("7", "lemma31", "--q", "5", "--part", "1"), 0,
     "d681faa9565036feee4c538b580eb3caf8f07084e48e292421875124819870b8"),
    (("0", "lemma31", "--q", "8", "--part", "5"), 0,
     "94b65f74bfc34fb65e2541053192626ba47136759b6ebcb207f992fbb0122b88"),
    (("0", "pentanomial", "--q", "5", "--Q", "1", "--R", "1", "--S", "1",
      "--variant", "z1"), 0,
     "0071a30a118ca750179719c1fb8ce10f3d3bcf87301762d876eaa0bd7eae50e7"),
    (("7", "pentanomial", "--q", "4", "--Q", "1", "--R", "2", "--S", "2",
      "--variant", "z1"), 2,
     "87eae24c6e261da93d98f8eaa1b4d453904a8dc99586c2c04a318a29c7d16388"),
    # every pentanomial variant, both omegas, twisted with alpha_idx != 0; the
    # q = 4 triple (1, 2, 1) of z2qr is one the oracle refutes
    (("0", "pentanomial", "--q", "4", "--Q", "1", "--R", "2", "--S", "1",
      "--variant", "z1", "--omega", "1"), 0,
     "3f2d166ccf6eb6fd37af654137276bb7ae52c28ce2b929fffb2c90d3af502dd5"),
    (("7", "pentanomial", "--q", "4", "--Q", "1", "--R", "1", "--S", "2",
      "--variant", "z2", "--omega", "2"), 0,
     "35daf45c3aaaf7d86f604a88c42d4bed2804a2129ecfb3e661e3eaac87ed9430"),
    (("0", "pentanomial", "--q", "4", "--Q", "2", "--R", "1", "--S", "1",
      "--variant", "z1qr", "--omega", "1"), 0,
     "9955fd634937e395681674a1375fe6df620405619f71367658cbeca260617fa3"),
    (("7", "pentanomial", "--q", "4", "--Q", "1", "--R", "2", "--S", "1",
      "--variant", "z2qr", "--omega", "2"), 2,
     "aa48ed3f3f8e169d2ea258bd9f64a1885d2ce3c2f5ddf9640d7074c6d9036c7e"),
    (("0", "pentanomial", "--q", "7", "--Q", "1", "--R", "1", "--S", "7",
      "--variant", "z1", "--omega", "2"), 0,
     "9a6890a411183360ac3b78a6aed933c744614ccee644dcaf500a4abed2c80fcb"),
    (("7", "pentanomial", "--q", "7", "--Q", "7", "--R", "1", "--S", "1",
      "--variant", "z2", "--omega", "1"), 0,
     "3584d3c85deabc3b15a96a233b6f954fb0a1bac5781aea25f73a0eb0021fc684"),
    (("0", "pentanomial", "--q", "7", "--Q", "1", "--R", "7", "--S", "1",
      "--variant", "z1qr", "--omega", "1"), 0,
     "88571c4aca3496760de06c4c5c5ce1b0e06a655bbd7767cf2823b869987d05c2"),
    (("7", "pentanomial", "--q", "7", "--Q", "1", "--R", "1", "--S", "1",
      "--variant", "z2qr", "--omega", "2"), 0,
     "3528c0c34eb70b049cc49e179d9c489d053829945f65324b2103edd9d57075a5"),
    (("0", "pentanomial", "--q", "5", "--Q", "1", "--R", "5", "--S", "1",
      "--variant", "twisted", "--omega", "1", "--alpha-idx", "2"), 0,
     "af9a0ec218aded8d3efaf0fbcacef5d41c1da34685b7c04de7609d7d2ab982d7"),
    (("7", "pentanomial", "--q", "5", "--Q", "5", "--R", "1", "--S", "25",
      "--variant", "twisted", "--omega", "2", "--alpha-idx", "4"), 0,
     "371e8f34984f773acb3ccd823199a6c1140d997957e1bfa7e69aff29248cde6c"),
    (("0", "pentanomial", "--q", "8", "--Q", "2", "--R", "1", "--S", "4",
      "--variant", "twisted", "--omega", "2", "--alpha-idx", "3"), 0,
     "a2ab689839e645d939760f0bd46094b9fb563913b5702c0598b87bee496ca846"),
    (("7", "pentanomial", "--q", "8", "--Q", "1", "--R", "8", "--S", "2",
      "--variant", "twisted", "--omega", "1", "--alpha-idx", "7"), 0,
     "76c34756a2099fb0c570a6f81b8147822f96a26e165a25d2c577a5f2da597786"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_OUTPUTS,
                         ids=[f"{a[1] if a[1] != '--field' else a[3]}-{i}"
                              for i, (a, _, _) in enumerate(PINNED_OUTPUTS)])
def test_json_output_pinned(tmp_path, capsys, argv, code, digest):
    seed, *rest = argv
    out = tmp_path / "out.json"
    assert main(["--seed", seed, "--format", "json", "--out", str(out), *rest]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()
