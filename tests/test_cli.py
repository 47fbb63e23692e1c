import atexit
import errno
import gc
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import adapted_pairs
from adapted_pairs.certificate import certificate_dict, to_json
from adapted_pairs.cli import USAGE, _rat_str, eps_str, main, render_certificate
from adapted_pairs.roots import RootSystem, build_root_system
from adapted_pairs.verify import run_case
from engine_oracle import centre_moved_outside, rat_value, replace
from engine_oracle import eps_str as oracle_eps_str


def test_verify_pass_exit_code_and_output(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["verify", "--family", "E7", "--rank", "7", "--s", "3",
                 "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "3, 6, 8, 10, 18" in stdout
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "pass"
    assert cert["schema"] == 1


def test_verify_failure_exit_code(monkeypatch, capsys):
    import adapted_pairs.verify as verify

    broken = replace(run_case("B", 2, 2), t_size_vs_index=False)
    monkeypatch.setattr(verify, "run_case", lambda *a: broken)
    code = main(["verify", "--family", "B", "--rank", "2", "--s", "2"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "T_size_vs_index" in out


def test_verify_prints_why_a_check_failed(monkeypatch, capsys):
    import adapted_pairs.construction as construction

    cand = construction.build_case("B", 6, 4)
    sets = dict(cand.gamma_sets)
    sets.pop(list(sets)[2])
    bad = replace(cand, gamma_sets=sets)
    monkeypatch.setattr(construction, "build_case", lambda *a: bad)
    code = main(["verify", "--family", "B", "--rank", "6", "--s", "4"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL" in lines[0]
    assert lines[1] == "first failing check: heisenberg_ok"
    assert "heisenberg: Gamma, T*, T do not partition the support" in lines[2:]
    assert all(l.startswith(("heisenberg: ", "classification: ")) for l in lines[2:])
    heis = [l for l in lines[2:] if l.startswith("heisenberg: ")]
    assert heis == sorted(heis)


def test_verify_fails_a_member_without_partner(tmp_path, monkeypatch, capsys):
    import adapted_pairs.construction as construction

    cand = construction.build_case("B", 6, 4)
    root = cand.system.by_code
    sets = dict(cand.gamma_sets)
    centre = max(sets, key=lambda g: len(sets[g]))
    dropped = max(sets[centre] - {centre}, key=lambda a: root[a])
    sets[centre] = sets[centre] - {dropped}
    bad = replace(cand, gamma_sets=sets)
    monkeypatch.setattr(construction, "build_case", lambda *a: bad)
    out = tmp_path / "cert.json"
    code = main(["verify", "--family", "B", "--rank", "6", "--s", "4",
                 "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "first failing check: heisenberg_ok"
    assert any(
        l.startswith(f"heisenberg: {root[centre]}: no Heisenberg partner for ")
        for l in lines[2:]
    )
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "fail"
    assert cert["first_failing_check"] == "heisenberg_ok"
    assert cert["checks"]["classification_ok"] is False


def test_verify_fails_an_s_member_outside_the_support(tmp_path, monkeypatch, capsys):
    import adapted_pairs.construction as construction

    bad, moved = centre_moved_outside(construction.build_case("B", 6, 4))
    moved = bad.system.by_code[moved]
    monkeypatch.setattr(construction, "build_case", lambda *a: bad)
    out = tmp_path / "cert.json"
    code = main(["verify", "--family", "B", "--rank", "6", "--s", "4",
                 "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "first failing check: heisenberg_ok"
    assert f"heisenberg: {moved}: member {moved} outside support" in lines
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "fail"
    assert cert["checks"]["regularity_rank"] == 0
    assert cert["checks"]["regularity_rank_augmented"] == 0


def test_verify_fails_a_non_basis_s(tmp_path, monkeypatch, capsys):
    import adapted_pairs.construction as construction
    from adapted_pairs.bounds import improved_bound
    from adapted_pairs.verify import solve_h

    monkeypatch.setattr(construction, "invert", lambda rows: (0, None))
    out = tmp_path / "cert.json"
    code = main(["verify", "--family", "B", "--rank", "6", "--s", "4",
                 "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "first failing check: basis_det"
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "fail"
    assert cert["first_failing_check"] == "basis_det"
    assert rat_value(cert["checks"]["basis_det"]) == 0
    assert cert["degrees"] == [] and cert["h"]["coroot_coeffs"] == []
    assert cert["bounds"]["improved_multiples_of_varpi_s"] == []
    # called directly, both still refuse a non-basis S
    cand = construction.build_case("B", 6, 4)
    with pytest.raises(ArithmeticError):
        solve_h(cand)
    with pytest.raises(ArithmeticError):
        improved_bound(cand)


def test_verify_out_of_scope_exit_code(capsys):
    code = main(["verify", "--family", "B", "--rank", "5", "--s", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: B n=5 s=3: ")
    assert "out of scope" in lines[0]


def test_verify_invalid_rank(capsys):
    code = main(["verify", "--family", "D", "--rank", "3", "--s", "2"])
    assert code == 2


def test_certificate_round_trip(tmp_path):
    result = run_case("B", 4, 4)
    cert = certificate_dict(result)
    text = to_json(cert)
    assert json.loads(text) == cert
    # exact rationals survive: h entry -1 has num/den form
    entry = cert["h"]["coroot_coeffs"][0]
    assert set(entry["value"]) == {"num", "den"}
    assert rat_value(entry["value"]).denominator >= 1


def test_certificate_deterministic():
    a = to_json(certificate_dict(run_case("D", 6, 6)))
    b = to_json(certificate_dict(run_case("D", 6, 6)))
    assert a == b


def test_report_renders_h_and_tables(tmp_path, capsys):
    out = tmp_path / "e6.json"
    assert main(["verify", "--family", "E6", "--rank", "6", "--s", "6",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(out), "--format", "txt"]) == 0
    text = capsys.readouterr().out
    assert "- 2*a1v - a2v + a3v + 6*a4v - 5*a5v" in text
    assert "Heisenberg sets" in text and "T*" in text
    assert main(["report", "--in", str(out), "--format", "md"]) == 0
    md = capsys.readouterr().out
    assert md.startswith("# Certificate")


def test_report_names_first_failing_check(tmp_path, capsys):
    cert = certificate_dict(run_case("B", 3, 2))
    cert["verdict"] = "fail"
    cert["first_failing_check"] = "nondegeneracy_det"
    path = tmp_path / "fail.json"
    path.write_text(to_json(cert))
    assert main(["report", "--in", str(path), "--format", "txt"]) == 0
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    assert "first failing check: nondegeneracy_det" in out


def test_report_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", "--in", str(bad), "--format", "txt"]) == 2
    bad.write_text(json.dumps({"schema": 99}))
    assert main(["report", "--in", str(bad), "--format", "txt"]) == 2


def test_report_rejects_json_nested_too_deeply(tmp_path, capsys):
    # the parser gives up with RecursionError: an unreadable certificate
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000 + "]" * 100000)
    assert main(["report", "--in", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read certificate: ")


def test_report_on_a_tampered_rank_reads_no_root_system(
    tmp_path, monkeypatch, capsys
):
    # a rank far above the certificate's root vectors is refused before any
    # root system is built: building B2000 would run for minutes
    import adapted_pairs.cli as cli_mod

    def refuse(*args):
        raise AssertionError(f"root system {args} built")

    cert = json.loads(to_json(certificate_dict(run_case("B", 8, 4))))
    cert["case"]["rank"] = 2000
    path = tmp_path / "rank.json"
    path.write_text(json.dumps(cert))
    monkeypatch.setattr(cli_mod, "build_root_system", refuse)
    assert main(["report", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed certificate: ")
    assert "rank 2000" in lines[0]


def test_report_rejects_a_vector_that_shares_a_root_code(tmp_path, capsys):
    # in B8 (base 7) the vector 7 alpha_8 has the code of alpha_7, and is
    # no root
    cert = json.loads(to_json(certificate_dict(run_case("B", 8, 4))))
    cert["T"][0] = [0] * 7 + [7]
    path = tmp_path / "code.json"
    path.write_text(json.dumps(cert))
    assert main(["report", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed certificate: ")
    assert "[0, 0, 0, 0, 0, 0, 0, 7] is not a root of B8" in lines[0]


@pytest.mark.parametrize("family", ["B", "X"])
def test_report_rejects_a_certificate_that_lists_no_root(tmp_path, capsys, family):
    # with no root vector, nothing would check the case's family and rank
    cert = json.loads(to_json(certificate_dict(run_case("B", 8, 4))))
    cert["case"]["family"] = family
    cert["S"] = {"plus": [], "minus": [], "mixed": []}
    for key in ("gamma_sets", "T", "T_star", "eigenvalues"):
        cert[key] = []
    path = tmp_path / "noroots.json"
    path.write_text(json.dumps(cert))
    assert main(["report", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed certificate: the certificate lists no root\n"


@pytest.mark.parametrize(
    "alpha", [[1], True, 0, 5], ids=["list", "bool", "0", "rank+1"]
)
def test_report_rejects_an_h_term_index_that_is_no_simple_root(
    tmp_path, capsys, alpha
):
    # an h term names a coroot alpha_k^vee by its index k in 1..rank
    cert = json.loads(to_json(certificate_dict(run_case("B", 4, 2))))
    cert["h"]["coroot_coeffs"][0]["alpha"] = alpha
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert))
    assert main(["report", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed certificate: ")


@pytest.mark.parametrize("schema", [True, 1.0, "1"])
def test_report_rejects_a_schema_that_is_not_the_int_1(tmp_path, capsys, schema):
    # true and 1.0 compare equal to 1; neither is schema 1
    cert = certificate_dict(run_case("B", 4, 2))
    cert["schema"] = schema
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(cert))
    assert main(["report", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unsupported certificate schema\n"


def test_cascade_command(capsys):
    assert main(["cascade", "--family", "B", "--rank", "4"]) == 0
    out = capsys.readouterr().out
    assert "e1+e2" in out and "e3+e4" in out and "e1-e2" in out and "e3-e4" in out


def test_sweep_small(tmp_path, capsys):
    out = tmp_path / "certs"
    code = main(["sweep", "--max-rank", "4", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "all pass" in stdout
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "B_n2_s2.json",
        "B_n3_s2.json",
        "B_n4_s2.json",
        "B_n4_s4.json",
        "D_n4_s2.json",
    ]
    # summary row count equals the number of in-scope cases
    rows = [l for l in stdout.splitlines() if l.startswith(("B ", "D "))]
    assert len(rows) == 5


def test_without_out_no_certificate_is_built_and_the_output_is_the_same(
    tmp_path, monkeypatch, capsys
):
    # verify and sweep print the degrees and verdict of the case result, so
    # without --out they build no certificate and print what they print
    # with it, the sweep's times aside; B4 s=2 is made to fail, so the
    # verdict and the failing check are compared too
    import re

    import adapted_pairs.certificate as certificate
    import adapted_pairs.verify as verify

    def fail_b4_s2(family, n, s):
        result = run_case(family, n, s)
        if (family, n, s) == ("B", 4, 2):
            return replace(result, t_size_vs_index=False)
        return result

    monkeypatch.setattr(verify, "run_case", fail_b4_s2)
    commands = [
        ["verify", "--family", "B", "--rank", "4", "--s", "2"],
        ["verify", "--family", "E6", "--rank", "6", "--s", "1"],
        ["sweep", "--max-rank", "6"],
    ]
    with_out = []
    for i, argv in enumerate(commands):
        code = main(argv + ["--out", str(tmp_path / f"out{i}")])
        with_out.append((code, capsys.readouterr().out))
    assert [code for code, _ in with_out] == [1, 0, 1]

    def refuse(result):
        raise AssertionError("a certificate was built without --out")

    monkeypatch.setattr(certificate, "certificate_dict", refuse)
    untimed = lambda text: re.sub(r" +[0-9]+\.[0-9]{2}s", "", text)
    for argv, (code, stdout) in zip(commands, with_out):
        assert main(argv) == code
        assert untimed(capsys.readouterr().out) == untimed(stdout)


def test_verify_and_sweep_print_each_degree_as_a_fraction_would(monkeypatch, capsys):
    # the engine's degrees are (num, den) pairs; verify and sweep print 7/2
    # as `7/2` and 4 as `4`, as str(Fraction) does, with no "/1"
    import adapted_pairs.verify as verify

    def half_integer_degree(family, n, s):
        result = run_case(family, n, s)
        degrees = ((-1, 3), (4, 1), (7, 2))
        return result._replace(pair=result.pair._replace(degrees=degrees))

    monkeypatch.setattr(verify, "run_case", half_integer_degree)
    assert main(["verify", "--family", "E7", "--rank", "7", "--s", "3"]) == 0
    assert capsys.readouterr().out == "E7 n=7 s=3: PASS  degrees: -1/3, 4, 7/2\n"
    assert main(["sweep", "--max-rank", "4"]) == 0
    rows = [l.split() for l in capsys.readouterr().out.splitlines()[1:-1]]
    assert [row[4] for row in rows] == ["-1/3,4,7/2"] * 5


def test_sweep_reports_a_crashing_case_and_goes_on(tmp_path, monkeypatch, capsys):
    import adapted_pairs.verify as verify

    def crash_on_b4_s2(family, n, s):
        if (family, n, s) == ("B", 4, 2):
            raise ArithmeticError("singular test matrix")
        return run_case(family, n, s)

    monkeypatch.setattr(verify, "run_case", crash_on_b4_s2)
    out = tmp_path / "certs"
    assert main(["sweep", "--max-rank", "5", "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    rows = [l for l in stdout.splitlines() if l.startswith(("B ", "D "))]
    assert len(rows) == 8
    errors = [l for l in rows if " error " in l]
    assert len(errors) == 1 and errors[0].startswith("B n=4 s=2 ")
    assert "ArithmeticError: singular test matrix" in errors[0]
    assert sum(" pass " in l for l in rows) == 7
    assert "FAILURES PRESENT" in stdout
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 7 and "B_n4_s2.json" not in files


def test_sweep_deletes_the_old_certificate_of_a_crashing_case(
    tmp_path, monkeypatch, capsys
):
    import adapted_pairs.verify as verify

    out = tmp_path / "certs"
    assert main(["sweep", "--max-rank", "4", "--out", str(out)]) == 0
    assert (out / "B_n4_s2.json").exists()

    def crash_on_b4_s2(family, n, s):
        if (family, n, s) == ("B", 4, 2):
            raise ArithmeticError("singular test matrix")
        return run_case(family, n, s)

    monkeypatch.setattr(verify, "run_case", crash_on_b4_s2)
    assert main(["sweep", "--max-rank", "4", "--out", str(out)]) == 1
    assert not (out / "B_n4_s2.json").exists()
    assert (out / "B_n4_s4.json").exists()


def test_sweep_crashing_case_whose_certificate_path_is_a_directory(
    tmp_path, monkeypatch, capsys
):
    # the old certificate of a crashing case cannot be removed: a usage
    # error, as when a certificate cannot be written, after the traceback
    import adapted_pairs.verify as verify

    def crash_on_b4_s2(family, n, s):
        if (family, n, s) == ("B", 4, 2):
            raise ArithmeticError("singular test matrix")
        return run_case(family, n, s)

    monkeypatch.setattr(verify, "run_case", crash_on_b4_s2)
    (tmp_path / "B_n4_s2.json").mkdir()
    # a later case's certificate of an earlier run goes too
    (tmp_path / "D_n4_s2.json").write_text("stale")
    assert main(["sweep", "--max-rank", "4", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert "ArithmeticError: singular test matrix" in lines
    assert lines[-1].startswith("error: cannot write --out: ")
    assert (tmp_path / "B_n4_s2.json").is_dir()
    assert not (tmp_path / "D_n4_s2.json").exists()


def test_sweep_goes_on_past_a_certificate_that_cannot_be_built(
    tmp_path, monkeypatch, capsys
):
    # the case runs, but building its certificate raises: the case is an
    # error row, its certificate of an earlier run goes, and the later cases
    # still run and are written
    import adapted_pairs.certificate as certificate

    real_root_list = certificate._root_list

    def raise_on_b3(root, codes):
        # the sweep builds each system afresh; the only rank-3 one is B3,
        # which has only s=2 here
        if len(next(iter(root.values()))) == 3:
            raise ValueError("cannot list the roots")
        return real_root_list(root, codes)

    out = tmp_path / "certs"
    out.mkdir()
    (out / "B_n3_s2.json").write_text("stale")
    monkeypatch.setattr(certificate, "_root_list", raise_on_b3)
    assert main(["sweep", "--max-rank", "5", "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    rows = [l for l in stdout.splitlines() if l.startswith(("B ", "D "))]
    assert len(rows) == 8
    errors = [l for l in rows if " error " in l]
    assert len(errors) == 1 and errors[0].startswith("B n=3 s=2 ")
    assert "ValueError: cannot list the roots" in errors[0]
    assert "FAILURES PRESENT" in stdout
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 7 and "B_n3_s2.json" not in files
    assert "D_n5_s2.json" in files


def _refuse_in_the_writer(monkeypatch, case):
    """certificate_dict gives the certificate of case a float, a value the
    streaming writer refuses with TypeError after it has emitted the
    pieces before it."""
    import adapted_pairs.certificate as certificate

    real = certificate.certificate_dict

    def with_a_float(result):
        cert = real(result)
        cand = result.candidate
        if (cand.family, cand.n, cand.s) == case:
            cert["verdict"] = 1.5
        return cert

    monkeypatch.setattr(certificate, "certificate_dict", with_a_float)


def test_sweep_goes_on_past_a_certificate_the_writer_refuses(
    tmp_path, monkeypatch, capsys
):
    # the writer refuses a value partway through the file: the case is an
    # error row, neither its certificate of an earlier run nor a temporary
    # file stays, and the later cases still run and are written
    out = tmp_path / "certs"
    out.mkdir()
    (out / "B_n4_s2.json").write_text("stale")
    _refuse_in_the_writer(monkeypatch, ("B", 4, 2))
    assert main(["sweep", "--max-rank", "5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    rows = [l for l in captured.out.splitlines() if l.startswith(("B ", "D "))]
    assert len(rows) == 8
    errors = [l for l in rows if " error " in l]
    assert len(errors) == 1 and errors[0].startswith("B n=4 s=2 ")
    assert "TypeError: float does not belong in a certificate" in errors[0]
    assert "Traceback" in captured.err
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 7 and "B_n4_s2.json" not in files
    assert not [name for name in files if not name.endswith(".json")]
    assert "D_n5_s2.json" in files


def test_verify_certificate_the_writer_refuses_is_a_fault(
    tmp_path, monkeypatch, capsys
):
    # not a usage error: the TypeError propagates, so the command exits 1
    # with its traceback, and leaves neither a certificate nor a temporary
    # file
    out = tmp_path / "cert.json"
    argv = ["verify", "--family", "B", "--rank", "4", "--s", "2", "--out", str(out)]
    assert main(argv) == 0 and out.exists()
    _refuse_in_the_writer(monkeypatch, ("B", 4, 2))
    with pytest.raises(TypeError, match="float does not belong in a certificate"):
        main(argv)
    assert list(tmp_path.iterdir()) == []
    assert "error:" not in capsys.readouterr().err


def test_verify_deletes_the_old_certificate_of_a_crashing_case(
    tmp_path, monkeypatch, capsys
):
    import adapted_pairs.verify as verify

    out = tmp_path / "cert.json"
    argv = ["verify", "--family", "B", "--rank", "4", "--s", "2", "--out", str(out)]
    assert main(argv) == 0 and out.exists()

    def crash(*case):
        raise ArithmeticError("singular test matrix")

    monkeypatch.setattr(verify, "run_case", crash)
    with pytest.raises(ArithmeticError):
        main(argv)
    assert not out.exists()


def test_verify_reports_an_engine_value_error_as_a_fault(
    tmp_path, monkeypatch, capsys
):
    # a ValueError from the engine (a case-data term that is no root, a
    # degenerate Cartan matrix) is not a usage error: it propagates, as in
    # sweep, and no certificate is left behind
    import adapted_pairs.verify as verify

    out = tmp_path / "cert.json"
    argv = ["verify", "--family", "B", "--rank", "4", "--s", "2", "--out", str(out)]
    assert main(argv) == 0 and out.exists()

    def crash(*case):
        raise ValueError("degenerate Cartan matrix")

    monkeypatch.setattr(verify, "run_case", crash)
    with pytest.raises(ValueError, match="degenerate Cartan matrix"):
        main(argv)
    assert not out.exists()
    assert "error:" not in capsys.readouterr().err


def test_a_sweep_lets_each_root_system_go(monkeypatch, capsys):
    # the sweep holds one root system at a time: once it returns, only the
    # plan's last system, E6, may still be memoized
    built = []
    init = RootSystem.__init__

    def record(self, family, rank):
        init(self, family, rank)
        built.append((family, rank, weakref.ref(self)))

    monkeypatch.setattr(RootSystem, "__init__", record)
    build_root_system.cache_clear()
    assert main(["sweep", "--max-rank", "6"]) == 0
    capsys.readouterr()
    gc.collect()
    assert {family for family, _, _ in built} == {"B", "D", "E6"}
    alive = [(family, rank) for family, rank, ref in built if ref() is not None]
    assert alive in ([], [("E6", 6)]), alive


def test_a_traced_sweep_writes_the_same_bytes(tmp_path, monkeypatch, capsys):
    # a tracer that replaces build_root_system, in every module that holds
    # it, by a functools.wraps wrapper leaves the sweep, which empties the
    # memo between systems, working and its certificates unchanged
    import functools

    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert main(["sweep", "--max-rank", "5", "--out", str(plain)]) == 0
    build = build_root_system

    @functools.wraps(build)
    def span(*args, **kwargs):
        return build(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("adapted_pairs") and vars(module).get(span.__name__) is build:
            monkeypatch.setattr(module, span.__name__, span)
    assert main(["sweep", "--max-rank", "5", "--out", str(traced)]) == 0
    capsys.readouterr()
    names = sorted(f.name for f in plain.iterdir())
    assert names and names == sorted(f.name for f in traced.iterdir())
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes()


def test_sweep_usage_error(capsys):
    assert main(["sweep", "--max-rank", "3"]) == 2
    assert _one_error_line(capsys) == ""


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return captured.out


CASE = ["--family", "B", "--rank", "4", "--s", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["prove"],
        ["--family", "B"],
        ["verify", *CASE, "--bogus", "1"],
        ["verify", *CASE, "extra"],
        ["verify", "--fam", "B", "--rank", "4", "--s", "2"],
        ["verify", "--family", "B", "--rank", "4", "--s"],
        ["verify", "--family", "--rank", "4", "--s", "2"],
        ["verify", "--family", "B", "--rank", "4"],
        ["verify", "--rank", "4", "--s", "2"],
        ["verify", "--family", "B", "--rank", "four", "--s", "2"],
        ["verify", "--family", "B", "--rank", "4", "--s", "2.0"],
        ["verify", "--family", "B", "--rank=", "--s", "2"],
        ["verify", "--family", "X", "--rank", "4", "--s", "2"],
        ["verify", "--family=b", "--rank", "4", "--s", "2"],
        ["sweep"],
        ["sweep", "--max-rank", "x"],
        ["sweep", "--max-rank", "12", "--family", "B"],
        ["cascade", "--family", "E8", "--rank", "8"],
        ["report"],
        ["report", "--in", "c.json", "--format", "pdf"],
        ["report", "--in"],
        ["report", "--in", "--format"],
        ["verify", *CASE, "--out="],
        ["verify", *CASE, "--out", ""],
        ["sweep", "--max-rank", "4", "--out="],
        ["report", "--in="],
    ],
)
def test_a_bad_command_line_is_one_error_line(argv, capsys):
    assert main(argv) == 2
    assert _one_error_line(capsys) == ""


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["verify", "-h"], ["sweep", "--help"], ["cascade", "-h"],
     ["report", "--help"], ["verify", *CASE, "--help"], ["prove", "-h"]],
)
def test_help_prints_the_usage_of_every_command(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out == USAGE
    for command in ("verify", "sweep", "cascade", "report"):
        assert f"adapted-pairs {command} " in captured.out
    # the README's "Command line" block is this usage
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert "\n```\n" + USAGE + "```\n" in readme


def test_main_reads_the_process_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["adapted-pairs", "--help"])
    assert main() == 0
    assert capsys.readouterr().out == USAGE


def test_each_spelling_of_an_option_gives_the_same_run(capsys):
    outputs = []
    for argv in (
        ["verify", "--family", "D", "--rank", "12", "--s", "11"],
        ["verify", "--family=D", "--rank=12", "--s=11"],
        # a repeated option keeps its last value
        ["verify", "--s", "4", "--family", "B", "--rank", "6", "--rank", "12", "--s=11",
         "--family", "D"],
    ):
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out.startswith("D n=12 s=11: PASS")
    assert outputs[1:] == outputs[:1] * 2


def test_verify_out_directory_is_a_usage_error(tmp_path, capsys):
    argv = ["verify", "--family", "B", "--rank", "4", "--s", "2"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert _one_error_line(capsys) == ""
    assert tmp_path.is_dir()


def test_verify_out_in_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "c.json"
    argv = ["verify", "--family", "B", "--rank", "4", "--s", "2", "--out", str(out)]
    assert main(argv) == 2
    # refused before the case runs: no verdict line
    assert _one_error_line(capsys) == ""
    assert not (tmp_path / "missing").exists()


def test_sweep_out_file_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "f"
    out.write_text("kept")
    assert main(["sweep", "--max-rank", "4", "--out", str(out)]) == 2
    assert _one_error_line(capsys) == ""
    assert out.read_text() == "kept"


def test_verify_certificate_that_cannot_be_written_is_a_usage_error(
    tmp_path, monkeypatch, capsys
):
    import adapted_pairs.verify as verify

    out = tmp_path / "cert.json"
    real_run_case = verify.run_case

    def run_case_then_block_out(*case):
        result = real_run_case(*case)
        out.mkdir()
        return result

    monkeypatch.setattr(verify, "run_case", run_case_then_block_out)
    argv = ["verify", "--family", "B", "--rank", "4", "--s", "2", "--out", str(out)]
    assert main(argv) == 2
    assert _one_error_line(capsys) == ""


class _FullDisk:
    """A file opened for writing that takes half of its first write, then
    fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _fill_the_disk(monkeypatch):
    real_open = Path.open

    def open_on_a_full_disk(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return _FullDisk(fh) if "w" in mode else fh

    monkeypatch.setattr(Path, "open", open_on_a_full_disk)


def test_verify_write_that_fails_partway_leaves_no_file(tmp_path, monkeypatch, capsys):
    _fill_the_disk(monkeypatch)
    out = tmp_path / "cert.json"
    argv = ["verify", "--family", "B", "--rank", "4", "--s", "2", "--out", str(out)]
    assert main(argv) == 2
    assert _one_error_line(capsys) == ""
    assert list(tmp_path.iterdir()) == []


def test_sweep_write_that_fails_partway_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the first case cannot be written: no partial file stays, nor a
    # certificate of an earlier run under its name or that of a later case;
    # a file the sweep does not name stays
    for name in ("B_n2_s2.json", "B_n4_s4.json", "notes.json"):
        (tmp_path / name).write_text("stale")
    _fill_the_disk(monkeypatch)
    assert main(["sweep", "--max-rank", "4", "--out", str(tmp_path)]) == 2
    assert _one_error_line(capsys) == ""
    assert [p.name for p in tmp_path.iterdir()] == ["notes.json"]


def test_sweep_certificate_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "B_n4_s2.json").mkdir()
    assert main(["sweep", "--max-rank", "4", "--out", str(tmp_path)]) == 2
    assert _one_error_line(capsys) == ""


def test_report_rejects_certificate_without_fields(tmp_path, capsys):
    bad = tmp_path / "bare.json"
    bad.write_text(json.dumps({"schema": 1}))
    assert main(["report", "--in", str(bad), "--format", "txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed certificate: ")


@pytest.mark.parametrize(
    "bad",
    [
        {"num": 1, "den": 0},
        {"num": 1.5, "den": 2},
        {"num": "1", "den": 2},
        {"num": True, "den": 1},
    ],
)
def test_report_rejects_a_malformed_rational(tmp_path, capsys, bad):
    # in each place a rational is rendered: an h coefficient, an eigenvalue,
    # a degree, a bound multiple and a check determinant
    cert = certificate_dict(run_case("B", 4, 2))
    places = [
        (lambda c: c["h"]["coroot_coeffs"][0], "value"),
        (lambda c: c["eigenvalues"][0], "value"),
        (lambda c: c["degrees"], 0),
        (lambda c: c["bounds"]["lower_multiples_of_varpi_s"], 0),
        (lambda c: c["bounds"]["improved_multiples_of_varpi_s"], 0),
        (lambda c: c["checks"], "basis_det"),
    ]
    path = tmp_path / "bad.json"
    for place, key in places:
        broken = json.loads(to_json(cert))
        place(broken)[key] = bad
        path.write_text(json.dumps(broken))
        assert main(["report", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed certificate: ")


def test_rationals_print_as_fraction_does():
    # lowest terms, the sign on the numerator, an integer without "/1"
    for num in range(-7, 8):
        for den in [d for d in range(-7, 8) if d]:
            want = str(Fraction(num, den))
            assert _rat_str({"num": num, "den": den}) == want


EPS_SYSTEMS = (
    [("B", n) for n in range(2, 17)]
    + [("D", n) for n in range(4, 17)]
    + [("E6", 6), ("E7", 7)]
)


@pytest.mark.parametrize("family,rank", EPS_SYSTEMS)
def test_eps_str_matches_the_fraction_rendering(family, rank):
    system = build_root_system(family, rank)
    for root in system.by_code:
        assert eps_str(system, root) == oracle_eps_str(system, root)


def test_report_rejects_non_root_in_t(tmp_path, capsys):
    cert = certificate_dict(run_case("B", 4, 2))
    cert["T"] = [[9, 9, 9, 9]]
    bad = tmp_path / "nonroot.json"
    bad.write_text(to_json(cert))
    assert main(["report", "--in", str(bad), "--format", "txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed certificate: ")
    assert "[9, 9, 9, 9]" in lines[0]


@pytest.mark.parametrize("convert", [bool, float], ids=["bool", "float"])
def test_report_rejects_a_coefficient_that_is_not_an_int(tmp_path, capsys, convert):
    # true and 0.0 compare equal to 1 and 0, so the vector would be looked
    # up as a root; in each place a root is rendered
    cert = certificate_dict(run_case("B", 4, 2))
    places = [
        lambda c: c["S"]["plus"][0],
        lambda c: c["gamma_sets"][0]["centre"],
        lambda c: c["gamma_sets"][0]["members"][0],
        lambda c: c["T"][0],
        lambda c: c["eigenvalues"][0]["gamma"],
    ]
    path = tmp_path / "bad.json"
    for place in places:
        broken = json.loads(to_json(cert))
        coeffs = place(broken)
        k = next(i for i, x in enumerate(coeffs) if x in (0, 1))
        coeffs[k] = convert(coeffs[k])
        path.write_text(json.dumps(broken))
        assert main(["report", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed certificate: ")


def test_sweep_row_names_the_first_failing_check(monkeypatch, capsys):
    import adapted_pairs.verify as verify

    def fail_b4_s2(family, n, s):
        result = run_case(family, n, s)
        if (family, n, s) == ("B", 4, 2):
            return replace(result, t_size_vs_index=False)
        return result

    monkeypatch.setattr(verify, "run_case", fail_b4_s2)
    assert main(["sweep", "--max-rank", "4"]) == 1
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l.startswith(("B ", "D "))]
    failing = [l for l in rows if " fail " in l]
    assert len(failing) == 1 and failing[0].startswith("B n=4 s=2 ")
    assert failing[0].endswith("s  first failing check: T_size_vs_index")
    others = [l for l in rows if l not in failing]
    assert others and all(" pass " in l and "first failing" not in l for l in others)


def _src_env() -> dict:
    """The environment of a fresh process that imports this checkout's
    package from src/, ahead of any PYTHONPATH already set."""
    src = str(Path(adapted_pairs.__file__).resolve().parent.parent)
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return dict(os.environ, PYTHONPATH=path)


ENGINE = ("construction", "verify", "chevalley", "bounds", "cascade", "parabolic")

REPORT_ONLY = """
import sys
before = set(sys.modules)
import contextlib, io
import adapted_pairs, adapted_pairs.cli

ENGINE = {engine!r}

def loaded():
    return [m for m in ENGINE if "adapted_pairs." + m in sys.modules]

assert loaded() == [], loaded()
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert adapted_pairs.cli.main(["report", "--in", sys.argv[1]]) == 0
assert "verdict: PASS" in out.getvalue()
assert loaded() == [], loaded()
# the rationals and epsilon forms are rendered on ints: neither the command
# line nor the rendering loads fractions, or the decimal module it imports;
# nor argparse, which the command line does without.  `before` holds what
# the interpreter's start loaded, so a site-packages .pth cannot move this
new = set(sys.modules) - before
forbidden = {{"fractions", "decimal", "argparse"}}
assert not new & forbidden, sorted(new & forbidden)

from adapted_pairs.verify import run_case
assert adapted_pairs.run_case is run_case
from adapted_pairs import chevalley
assert chevalley.build_structure_table
try:
    adapted_pairs.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown package attribute resolved")
print("ok")
"""


def test_report_loads_no_engine_module(tmp_path):
    # a fresh process: importing the package and the command line, and
    # rendering a stored certificate, load none of the engine modules, no
    # fractions and no argparse
    cert = tmp_path / "B_n6_s4.json"
    cert.write_text(to_json(certificate_dict(run_case("B", 6, 4))))
    proc = subprocess.run(
        [sys.executable, "-c", REPORT_ONLY.format(engine=ENGINE), str(cert)],
        env=_src_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_verify_loads_no_dataclasses_or_inspect(tmp_path):
    # a fresh `python -m adapted_pairs.cli verify --out` process builds its
    # engine from plain classes and typing.NamedTuple records: neither
    # dataclasses nor the inspect module it imports is loaded.  Nor is the
    # Kostant cascade, which only the `cascade` command runs, nor fractions,
    # which would bring decimal and numbers: the engine's rationals are int
    # pairs and its determinants ints.  Nor argparse, which the command line
    # does without, nor json, which only `report` reads with and the writer
    # loads only for a str that needs escaping.  -X importtime lists every
    # module the process imports, so the command itself is run unchanged;
    # what a bare interpreter loads in the same environment (a site-packages
    # .pth can load more) is not held against it.
    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *argv],
            env=_src_env(),
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        return proc.stdout, imported

    _, bare = run("-c", "pass")
    forbidden = {
        "dataclasses",
        "inspect",
        "adapted_pairs.cascade",
        "fractions",
        "decimal",
        "numbers",
        "argparse",
        "json",
    } - bare
    for family, rank, s in [("B", 6, 2), ("D", 8, 6), ("D", 8, 7), ("E6", 6, 1)]:
        out = tmp_path / f"{family}_n{rank}_s{s}.json"
        stdout, imported = run(
            "-m", "adapted_pairs.cli", "verify", "--family", family,
            "--rank", str(rank), "--s", str(s), "--out", str(out),
        )
        assert stdout.startswith(f"{family} n={rank} s={s}: PASS")
        assert out.read_text() == to_json(certificate_dict(run_case(family, rank, s)))
        assert {"adapted_pairs.verify", "adapted_pairs.certificate"} <= imported
        loaded = imported & forbidden
        assert not loaded, loaded
    # the `cascade` command prints a closed form: of the engine it loads only
    # `cascade`, and neither linalg, fractions, json nor argparse
    _, imported = run("-m", "adapted_pairs.cli", "cascade", "--family", "E6", "--rank", "6")
    assert "adapted_pairs.cascade" in imported
    forbidden = {f"adapted_pairs.{m}" for m in ENGINE if m != "cascade"} | {
        "adapted_pairs.linalg",
        "fractions",
        "json",
        "argparse",
    }
    loaded = imported & (forbidden - bare)
    assert not loaded, loaded


FREEZE_AT_EXIT = """
import atexit, gc, sys
# registered before main, so it runs after every hook main registers
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
import adapted_pairs.cli
sys.exit(adapted_pairs.cli.main(sys.argv[1:]))
"""


def test_every_command_freezes_the_heap_before_the_shutdown_collection(tmp_path):
    cert = tmp_path / "B_n4_s2.json"
    cert.write_text(to_json(certificate_dict(run_case("B", 4, 2))))
    for argv in (
        ["verify", "--family", "B", "--rank", "4", "--s", "2"],
        ["sweep", "--max-rank", "4"],
        ["cascade", "--family", "B", "--rank", "4"],
        ["report", "--in", str(cert)],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", FREEZE_AT_EXIT, *argv],
            env=_src_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("\nfrozen True\n"), (argv, proc.stdout)


def test_main_registers_one_freeze_however_often_it_runs(monkeypatch, capsys):
    hooks = []

    def unregister(func):
        hooks[:] = [h for h in hooks if h != func]

    monkeypatch.setattr(atexit, "register", hooks.append)
    monkeypatch.setattr(atexit, "unregister", unregister)
    for _ in range(2):
        assert main(["cascade", "--family", "B", "--rank", "4"]) == 0
    assert hooks == [gc.freeze]


def test_a_fresh_process_writes_the_bytes_of_the_in_process_engine(tmp_path):
    # the exit after the command loses no output: the certificate file and
    # the piped report match what the engine and renderer give in-process
    out = tmp_path / "D_n8_s6.json"
    want = to_json(certificate_dict(run_case("D", 8, 6)))
    cli = [sys.executable, "-m", "adapted_pairs.cli"]
    verify = subprocess.run(
        cli + ["verify", "--family", "D", "--rank", "8", "--s", "6", "--out", str(out)],
        env=_src_env(),
        capture_output=True,
    )
    assert verify.returncode == 0, verify.stderr
    assert out.read_bytes() == want.encode()
    for fmt in ("txt", "md"):
        report = subprocess.run(
            cli + ["report", "--in", str(out), "--format", fmt],
            env=_src_env(),
            capture_output=True,
        )
        assert report.returncode == 0, report.stderr
        assert report.stdout == render_certificate(json.loads(want), fmt).encode()
