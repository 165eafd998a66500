"""End-to-end CLI tests, run in-process through main(argv).

Covers each subcommand, the three output formats, the placement of
``--format`` and ``--jobs`` on the commands that read them, and the
exit-code contract: 0 success, 1 domain/usage error, 2 violated internal
invariant.
"""

import concurrent.futures
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest
from conftest import catalogs_equal

import selink.catalog as catalog
import selink.cli as cli
import selink.toric as toric
from selink import BPExponents, DomainError, as_link
from selink.catalog import read_catalog
from selink.cli import _worker_count, main

CONIFOLD_FILE = "# conifold\n1 0 0\n1 1 0\n1 1 1\n1 0 1\n"
ORTHANT3_FILE = "1 0 0\n0 1 0\n0 0 1\n"
QUOTIENT_WEIGHTS_FILE = "1 4\n1 1 -1 -1\n"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_kv(line):
    return dict(tok.split("=", 1) for tok in line.split())


class TestClassify:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, "classify", "w=1,1,1,4,6", "d=12")
        assert rc == 0
        assert out == "type=positive index=1 n=4 dim=7 w=1,1,1,4,6 d=12\n"

    def test_single_token_presentation(self, capsys):
        rc, out, _ = run(capsys, "classify", "bp=3,4,5")
        assert rc == 0
        assert parse_kv(out)["type"] == "negative"

    def test_records(self, capsys):
        rc, out, _ = run(capsys, "classify", "--format", "records", "bp=2,3,5")
        assert rc == 0
        d = json.loads(out)
        assert d["type"] == "positive"
        assert d["w"] == [15, 10, 6]
        assert d["dim"] == 3


class TestHomology:
    def test_text_with_torsion(self, capsys):
        rc, out, _ = run(capsys, "homology", "bp=3,3,3,3,3")
        assert rc == 0
        assert out == "b=10 torsion=Z/3 proven\n"

    def test_text_torsion_free(self, capsys):
        rc, out, _ = run(capsys, "homology", "bp=2,3,5")
        assert rc == 0
        assert out == "b=0 torsion=0 proven\n"

    def test_weight_presentation_is_conjectural(self, capsys):
        rc, out, _ = run(capsys, "homology", "w=1,1,2,2,5", "d=10")
        assert rc == 0
        assert out.endswith(" conjectural\n")
        assert out.startswith("b=128 torsion=Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2")

    def test_source_flag_promotes_to_proven(self, capsys):
        rc, out, _ = run(capsys, "homology", "--source", "chain", "w=1,1,2,2,5", "d=10")
        assert rc == 0
        assert out.endswith(" proven\n")

    def test_records(self, capsys):
        rc, out, _ = run(capsys, "homology", "--format", "records", "bp=3,3,3,3,3")
        assert rc == 0
        d = json.loads(out)
        assert d == {"b": 10, "torsion": [3], "degree": 3, "applicability": "proven"}

    def test_table(self, capsys):
        rc, out, _ = run(capsys, "homology", "--format", "table", "bp=3,3,3,3,3")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == ["b", "torsion", "degree", "applicability"]
        assert lines[1].split("\t") == ["10", "3", "3", "proven"]

    @pytest.mark.parametrize(
        "n, message",
        [
            (17, "n=17 too large for the torsion table"),
            (21, "n=21 too large for subset enumeration"),
        ],
    )
    def test_oversized_link_is_domain_error(self, capsys, n, message):
        presentation = "bp=2," + ",".join(["3"] * n)
        rc, out, err = run(capsys, "homology", presentation)
        assert (rc, out, err) == (1, "", f"error: {message}\n")

    def test_overlong_torsion_chain_is_domain_error(self, capsys):
        rc, out, err = run(capsys, "homology", "bp=2,1000003,1000003,1000003")
        assert (rc, out) == (1, "")
        assert err == (
            "error: torsion chain of 1000003000002 invariant factors exceeds "
            "the safety bound of 2000000\n"
        )


class TestVerdict:
    def test_existence(self, capsys):
        rc, out, _ = run(capsys, "verdict", "bp=2,3,5")
        assert rc == 0
        assert out == "type=positive status=se_exists rule=ghigi_kollar margin=1/30\n"

    def test_obstruction(self, capsys):
        rc, out, _ = run(capsys, "verdict", "w=1,2,5,5,5", "d=10")
        assert parse_kv(out) == {
            "type": "positive",
            "status": "obstructed",
            "rule": "lichnerowicz",
            "margin": "4",
        }

    def test_negative_link(self, capsys):
        rc, out, _ = run(capsys, "verdict", "bp=3,4,5")
        assert out == "type=negative status=eta_einstein_exists rule=- margin=-\n"

    def test_unknown_shows_dashes(self, capsys):
        rc, out, _ = run(capsys, "verdict", "bp=2,2,2")
        assert parse_kv(out)["status"] == "unknown"
        assert parse_kv(out)["rule"] == "-"


class TestDim5Name:
    def test_name(self, capsys):
        rc, out, _ = run(capsys, "dim5-name", "bp=2,2,2,2")
        assert rc == 0
        assert out == "name=M_inf\n"

    def test_wrong_dimension_is_domain_error(self, capsys):
        rc, _, err = run(capsys, "dim5-name", "bp=2,3,5,7,11")
        assert rc == 1
        assert err.startswith("error:")

    def test_undoubled_torsion_is_domain_error(self, capsys):
        rc, out, err = run(capsys, "dim5-name", "w=1,2,4,4", "d=10")
        assert (rc, out) == (1, "")
        assert err == (
            "error: invariant factors of torsion (2,) do not pair up; "
            "not a doubled group\n"
        )

    def test_large_prime_torsion(self, capsys):
        rc, out, _ = run(capsys, "dim5-name", "bp=2,3,6,10000000000037")
        assert (rc, out) == (0, "name=M_10000000000037\n")


class TestSeTable:
    def test_from_presentation(self, capsys):
        # condition values may contain spaces, so match substrings here
        rc, out, _ = run(capsys, "se-table", "bp=2,2,2,2")
        assert rc == 0
        assert out.startswith("manifold=M_inf status=yes ")

    def test_from_invariants(self, capsys):
        rc, out, _ = run(capsys, "se-table", "--betti", "0")
        assert out.startswith("manifold=S^5 status=yes ")
        rc, out, _ = run(capsys, "se-table", "--betti", "0", "--m", "5,5")
        assert out.startswith("manifold=2M_5 status=yes ")

    def test_absent_manifold(self, capsys):
        rc, out, _ = run(capsys, "se-table", "--betti", "9", "--m", "12")
        assert out == "manifold=9M_inf # M_12 status=no row=- condition=-\n"

    def test_both_input_modes_rejected(self, capsys):
        rc, _, err = run(capsys, "se-table", "bp=2,2,2,2", "--betti", "0")
        assert rc == 1
        assert "not both" in err

    def test_neither_input_mode_rejected(self, capsys):
        rc, _, err = run(capsys, "se-table")
        assert rc == 1

    def test_bad_torsion_list(self, capsys):
        rc, _, err = run(capsys, "se-table", "--betti", "0", "--m", "x,y")
        assert rc == 1


class TestCasson:
    def test_value(self, capsys):
        rc, out, _ = run(capsys, "casson", "5", "3", "2")
        assert rc == 0
        assert out == "casson=-1\n"

    def test_non_coprime_rejected(self, capsys):
        rc, _, err = run(capsys, "casson", "2", "2", "3")
        assert rc == 1
        assert "coprime" in err

    @pytest.mark.parametrize("argv", [("2", "3", "--5"), ("--5", "3", "5")])
    def test_double_dash_number_is_named(self, capsys, argv):
        # argparse takes --5 for an option; it is named, not a missing a2.
        rc, out, err = run(capsys, "casson", *argv)
        assert (rc, out, err) == (1, "", "error: selink casson does not take --5\n")

    def test_negative_value_reaches_the_domain_check(self, capsys):
        rc, out, err = run(capsys, "casson", "2", "3", "-5")
        assert (rc, out, err) == (1, "", "error: exponents must be >= 2: (2, 3, -5)\n")


class TestTightCount:
    def test_value(self, capsys):
        rc, out, _ = run(capsys, "tight-count", "5", "1")
        assert rc == 0
        assert out == "count=4\n"

    def test_bad_pair(self, capsys):
        rc, _, err = run(capsys, "tight-count", "5", "5")
        assert rc == 1


class TestModuli:
    def test_plain(self, capsys):
        rc, out, _ = run(capsys, "moduli", "bp=2,3,5")
        assert rc == 0
        assert out == "moduli=0\n"

    def test_with_reference_prints_note(self, capsys):
        rc, out, _ = run(capsys, "moduli", "w=1,1,1,4,6", "d=12")
        assert rc == 0
        lines = out.splitlines()
        assert parse_kv(lines[0]) == {"moduli": "254", "reference": "266", "delta": "-12"}
        assert lines[1].startswith("note:")

    def test_records_has_no_note(self, capsys):
        rc, out, _ = run(capsys, "moduli", "--format", "records", "w=1,1,1,4,6", "d=12")
        d = json.loads(out)
        assert d == {"moduli": 254, "reference": 266, "delta": -12}

    def test_negative_count_warns_in_one_line(self, capsys):
        rc, out, err = run(capsys, "moduli", "w=1,1,1", "d=2")
        assert rc == 0
        assert out == "moduli=-6\n"
        assert err == "warning: naive moduli count is negative (-6) for w=1,1,1 d=2\n"

    def test_huge_degree_refused(self, capsys):
        # A degree-long count table would need 3 * 10^9 entries.
        rc, out, err = run(capsys, "moduli", "w=1,1,1", "d=3000000000")
        assert rc == 1
        assert out == ""
        assert err.startswith("error: counting monomials of degree 3000000000")

    def test_huge_degree_with_large_weights_answered(self, capsys):
        # Degree 4752524700, but the largest weights have few terms.
        rc, out, _ = run(capsys, "moduli", "bp=97,98,99,100,101")
        assert rc == 0
        assert out == "moduli=2\n"


class TestToric:
    @pytest.fixture
    def conifold(self, tmp_path):
        path = tmp_path / "conifold.txt"
        path.write_text(CONIFOLD_FILE)
        return str(path)

    @pytest.fixture
    def orthant(self, tmp_path):
        path = tmp_path / "orthant.txt"
        path.write_text(ORTHANT3_FILE)
        return str(path)

    def test_gamma(self, capsys, conifold, orthant):
        rc, out, _ = run(capsys, "toric", "gamma", conifold)
        assert rc == 0
        assert out == "gamma=-1,0,0\n"
        rc, out, _ = run(capsys, "toric", "gamma", orthant)
        assert out == "gamma=-1,-1,-1\n"

    def test_gamma_obstructed(self, capsys, tmp_path):
        path = tmp_path / "skew.txt"
        path.write_text("1 0\n2 3\n")
        rc, out, _ = run(capsys, "toric", "gamma", str(path))
        assert rc == 0
        assert out == "gamma=- reason=non-integral\n"

    def test_volume_exact(self, capsys, conifold):
        rc, out, _ = run(capsys, "toric", "volume", conifold, "--xi", "3,3/2,3/2")
        assert rc == 0
        assert out == "volume=16/27\n"

    def test_volume_records(self, capsys, conifold):
        rc, out, _ = run(
            capsys, "toric", "volume", "--format", "records", conifold, "--xi", "3,3/2,3/2"
        )
        d = json.loads(out)
        assert d["volume"] == "16/27"
        assert d["float"] == pytest.approx(16 / 27)

    def test_volume_boundary_xi_rejected(self, capsys, conifold):
        rc, _, err = run(capsys, "toric", "volume", conifold, "--xi", "1,0,0")
        assert rc == 1
        assert "bounded" in err

    def test_bad_xi_rejected(self, capsys, conifold):
        rc, _, err = run(capsys, "toric", "volume", conifold, "--xi", "1,zzz,0")
        assert rc == 1

    def test_minimize_orthant(self, capsys, orthant):
        rc, out, _ = run(capsys, "toric", "minimize", orthant)
        assert rc == 0
        d = parse_kv(out)
        assert float(d["volume"]) == pytest.approx(1.0, abs=1e-9)
        for component in d["xi"].split(","):
            assert float(component) == pytest.approx(1.0, abs=1e-6)
        assert float(d["grad_norm"]) <= 1e-8

    def test_minimize_conifold_with_start(self, capsys, conifold):
        rc, out, _ = run(
            capsys, "toric", "minimize", conifold, "--start", "3,1,2", "--grad-tol", "1e-10"
        )
        assert rc == 0
        d = parse_kv(out)
        assert float(d["volume"]) == pytest.approx(16 / 27, abs=1e-9)
        xi = [float(x) for x in d["xi"].split(",")]
        assert xi == pytest.approx([3.0, 1.5, 1.5], abs=1e-5)

    def test_weight_matrix_input(self, capsys, tmp_path):
        path = tmp_path / "quotient.txt"
        path.write_text(QUOTIENT_WEIGHTS_FILE)
        rc, out, _ = run(capsys, "toric", "gamma", str(path), "--weights")
        assert rc == 0
        assert out == "gamma=-1,-1,-1\n"
        rc, out, _ = run(capsys, "toric", "minimize", str(path), "--weights")
        assert float(parse_kv(out)["volume"]) == pytest.approx(16 / 27, abs=1e-9)

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("gamma", "gamma=-1,-1\n"),
            ("volume --xi 1,1", "volume=2/3\n"),
            ("minimize", "xi=0,2 volume=0.5 iterations=0 grad_norm=0\n"),
        ],
    )
    def test_torsion_quotient_warns_in_one_line(self, capsys, tmp_path, query, expected):
        path = tmp_path / "orbifold.txt"
        path.write_text("1 3\n2 2 -4\n")
        rc, out, err = run(capsys, "toric", *query.split(), str(path), "--weights")
        assert (rc, out) == (0, expected)
        assert err == (
            "warning: quotient lattice has torsion (2,); "
            "using the free quotient (orbifold lattice)\n"
        )

    def test_unconverged_minimum_is_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(toric, "_MAX_ITERATIONS", 1)
        path = tmp_path / "quotient.txt"
        path.write_text("1 4\n1 3 -2 -2\n")
        rc, out, err = run(capsys, "toric", "minimize", str(path), "--weights")
        assert (rc, out) == (2, "")
        assert err.startswith("internal error: iteration budget exhausted (iterations=1,")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("grad_tol", ["0", "-1", "nan", "inf"])
    def test_grad_tol_not_positive_and_finite(self, capsys, tmp_path, grad_tol):
        # Refused at once as bad input, not after a full iteration budget
        # as an internal error.
        path = tmp_path / "y21.txt"
        path.write_text("1 4\n1 3 -2 -2\n")
        argv = ("toric", "minimize", str(path), "--weights", f"--grad-tol={grad_tol}")
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == f"error: grad_tol must be positive and finite, got {float(grad_tol)}\n"

    def test_minimize_text_same_on_every_python(self, capsys, tmp_path):
        # The text of Python 3.10 and 3.11.  Every float reduction adds left
        # to right by hand; through sum(), which is compensated from 3.12
        # on, the last line read grad_norm=4.97710149414e-13 there.
        path = tmp_path / "y21.txt"
        path.write_text("1 4\n1 3 -2 -2\n")
        rc, out, _ = run(capsys, "toric", "minimize", str(path), "--weights", "--start", "7,1,1")
        assert rc == 0
        assert out == (
            "xi=-2.21110255091,2.60555127545,2.60555127545 volume=0.286642489448 "
            "iterations=10 grad_norm=4.97687501013e-13\n"
        )

    def test_missing_query(self, capsys, conifold):
        rc, _, err = run(capsys, "toric")
        assert rc == 1
        assert "toric needs a query" in err

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "toric", "gamma", "/nonexistent/cone.txt")
        assert rc == 1


class TestBatch:
    def test_writes_catalog(self, capsys, tmp_path):
        out_path = tmp_path / "cat.jsonl"
        rc, _, err = run(
            capsys, "batch", "--length", "3", "--max-exponent", "4", "-o", str(out_path)
        )
        assert rc == 0
        assert "wrote 10 records" in err
        lines = out_path.read_text().splitlines()
        assert len(lines) == 11
        assert json.loads(lines[0])["format"] == "selink-catalog"

    def test_stdout_when_no_output(self, capsys):
        rc, out, err = run(capsys, "batch", "--length", "3", "--max-exponent", "3")
        assert rc == 0
        lines = out.splitlines()
        assert json.loads(lines[0])["format"] == "selink-catalog"
        assert len(lines) == 1 + 4
        assert "wrote 4 records" in err

    def test_parallel_matches_serial(self, capsys, tmp_path):
        serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        assert run(
            capsys, "batch", "--length", "3", "--max-exponent", "4", "-o", str(serial)
        )[0] == 0
        assert run(
            capsys,
            "batch", "--jobs", "3", "--length", "3", "--max-exponent", "4",
            "-o", str(parallel),
        )[0] == 0
        assert catalogs_equal(serial.read_text(), parallel.read_text())

    def test_overflow_in_one_record_spares_the_batch(self, capsys, tmp_path, monkeypatch):
        clean, poisoned = tmp_path / "clean.jsonl", tmp_path / "poisoned.jsonl"
        args = ("batch", "--length", "3", "--max-exponent", "4")
        assert run(capsys, *args, "-o", str(clean))[0] == 0
        real_link_homology = catalog.link_homology

        def link_homology(presentation, *rest):
            if as_link(presentation) == as_link(BPExponents((2, 3, 4))):
                raise OverflowError("integer too large")
            return real_link_homology(presentation, *rest)

        monkeypatch.setattr(catalog, "link_homology", link_homology)
        rc, _, err = run(capsys, *args, "-o", str(poisoned))
        assert rc == 0 and "wrote 10 records" in err

        def records(path):
            with open(path) as fh:
                return read_catalog(fh)[1]

        before, after = records(clean), records(poisoned)
        assert len(before) == len(after) == 10
        for old, new in zip(before, after):
            if old.presentation != "bp=2,3,4":
                assert new == old
                continue
            assert new.error == "homology: OverflowError: integer too large"
            assert (new.betti, new.torsion, new.applicability) == (None, None, None)
            assert new == replace(
                old, betti=None, torsion=None, applicability=None, error=new.error
            )

    def test_absurd_jobs_clamped(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial, clamped = tmp_path / "serial.jsonl", tmp_path / "clamped.jsonl"
        assert run(
            capsys, "batch", "--length", "3", "--max-exponent", "4", "-o", str(serial)
        )[0] == 0
        assert run(
            capsys,
            "batch", "--jobs", "1000000", "--length", "3", "--max-exponent", "4",
            "-o", str(clamped),
        )[0] == 0
        assert catalogs_equal(serial.read_text(), clamped.read_text())

    def test_filters(self, capsys, tmp_path):
        out_path = tmp_path / "cat.jsonl"
        rc, _, err = run(
            capsys,
            "batch", "--length", "3", "--max-exponent", "5",
            "--coprime", "--type", "positive", "-o", str(out_path),
        )
        assert rc == 0
        assert "wrote 1 records" in err
        record = json.loads(out_path.read_text().splitlines()[1])
        assert record["presentation"] == "bp=2,3,5"

    def test_coprime_flags_exclude_each_other(self, capsys, tmp_path):
        out_path = tmp_path / "cat.jsonl"
        rc, out, err = run(
            capsys,
            "batch", "--length", "3", "--max-exponent", "5",
            "--coprime", "--no-coprime", "-o", str(out_path),
        )
        assert (rc, out) == (1, "")
        assert err == "error: argument --no-coprime: not allowed with argument --coprime\n"
        assert not out_path.exists()
        rc, _, err = run(
            capsys,
            "batch", "--length", "3", "--max-exponent", "5",
            "--no-coprime", "-o", str(out_path),
        )
        assert rc == 0
        expected = [bp.presentation() for bp in catalog.enumerate_bp(3, 5, coprime=False)]
        with out_path.open() as fh:
            assert [r.presentation for r in read_catalog(fh)[1]] == expected

    def test_status_filter(self, capsys, tmp_path):
        out_path = tmp_path / "cat.jsonl"
        rc, _, err = run(
            capsys,
            "batch", "--length", "3", "--max-exponent", "4",
            "--status", "se_exists", "-o", str(out_path),
        )
        assert rc == 0
        assert "wrote 4 records" in err

    def test_missing_required_flag(self, capsys):
        rc, _, err = run(capsys, "batch", "--length", "3")
        assert rc == 1

    def test_overflow_guard_maps_to_exit_1(self, capsys):
        rc, _, err = run(capsys, "batch", "--length", "8", "--max-exponent", "2000")
        assert rc == 1
        assert "safety bound" in err

    def test_length_guard_leaves_no_file(self, capsys, tmp_path):
        out_path = tmp_path / "P"
        rc, out, err = run(
            capsys, "batch", "--length", "1000000000", "--max-exponent", "2",
            "-o", str(out_path),
        )
        assert rc == 1
        assert out == ""
        assert err == "error: length 1000000000 exceeds the safety bound of 2000000\n"
        assert not out_path.exists()

    def test_bad_enumeration_leaves_no_file(self, capsys, tmp_path):
        out_path = tmp_path / "cat.jsonl"
        rc, _, err = run(
            capsys, "batch", "--length", "2", "--max-exponent", "5", "-o", str(out_path)
        )
        assert rc == 1
        assert "need length >= 3" in err
        assert not out_path.exists()

    def test_records_streamed_one_at_a_time(self, capsys, monkeypatch):
        # With --jobs 1 each record is written before the next one is
        # computed, so the batch never holds more than one record.
        events = []
        real_run_pipeline = cli.run_pipeline

        def run_pipeline(*args, **kwargs):
            events.append("run")
            return real_run_pipeline(*args, **kwargs)

        class Stream:
            def write(self, text):
                events.append("write")

        monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
        monkeypatch.setattr(cli.sys, "stdout", Stream())
        rc, _, err = run(capsys, "batch", "--length", "3", "--max-exponent", "4")
        assert rc == 0 and "wrote 10 records" in err
        assert events == ["write"] + ["run", "write"] * 10

    def test_parallel_batch_bounds_records_in_flight(self, capsys, tmp_path, monkeypatch):
        # --jobs N hands the pool one window of inputs at a time and submits
        # the next window while the current one drains, so at most two
        # windows are ever in flight.
        counts = {"submitted": 0, "yielded": 0}
        in_flight = []

        class Pool(ProcessPoolExecutor):
            def map(self, fn, items, **kwargs):
                items = list(items)
                counts["submitted"] += len(items)
                in_flight.append(counts["submitted"] - counts["yielded"])
                results = super().map(fn, items, **kwargs)

                def counted():
                    for result in results:
                        counts["yielded"] += 1
                        yield result

                return counted()

        monkeypatch.setattr(cli, "_BATCH_WINDOW", 8)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        args = ("batch", "--length", "3", "--max-exponent", "10")
        assert run(capsys, *args, "-o", str(serial))[0] == 0
        rc, _, err = run(capsys, *args, "--jobs", "2", "-o", str(parallel))
        assert rc == 0 and "wrote 165 records" in err
        assert counts == {"submitted": 165, "yielded": 165}
        assert len(in_flight) == 21  # ceil(165 / 8) windows
        assert in_flight[0] == 8 and max(in_flight) == 16
        assert catalogs_equal(serial.read_text(), parallel.read_text())


class TestExportTable:
    def test_pipeline(self, capsys, tmp_path):
        cat = tmp_path / "cat.jsonl"
        assert run(
            capsys, "batch", "--length", "3", "--max-exponent", "4", "-o", str(cat)
        )[0] == 0
        rc, out, _ = run(capsys, "export-table", str(cat))
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 11
        assert lines[0].split("\t")[0] == "presentation"

    def test_output_file(self, capsys, tmp_path):
        cat, tsv = tmp_path / "cat.jsonl", tmp_path / "out.tsv"
        run(capsys, "batch", "--length", "3", "--max-exponent", "3", "-o", str(cat))
        rc, out, _ = run(capsys, "export-table", str(cat), "-o", str(tsv))
        assert rc == 0
        assert out == ""
        assert tsv.read_text().startswith("presentation\t")

    def test_rejects_non_catalog(self, capsys, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("{}\n")
        rc, _, err = run(capsys, "export-table", str(path))
        assert rc == 1
        assert "not a catalog" in err

    def test_rejects_version_1_catalog(self, capsys, tmp_path):
        # Version 1 stamped the timestamp and tool version into every record.
        path = tmp_path / "v1.jsonl"
        path.write_text(
            '{"format": "selink-catalog", "tool_version": "0.1.0", "version": 1}\n'
            '{"presentation": "bp=2,3,5", "timestamp": "2026-01-01T00:00:00+00:00",'
            ' "version": "0.1.0"}\n'
        )
        rc, out, err = run(capsys, "export-table", str(path))
        assert rc == 1 and out == ""
        assert err == "error: unsupported catalog version 1\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\n", "empty catalog"),
            ("{}\n", "not a catalog file (header {})"),
            ('{"format": "selink-catalog", "version": 99}\n', "unsupported catalog version 99"),
            ("[]\n", "not a catalog file (header [])"),
            ('"selink-catalog"\n', "not a catalog file (header 'selink-catalog')"),
            ("\n{not json\n", "not a catalog file (line 2 is not JSON)"),
            pytest.param(
                '{"format": 1%s}\n' % ("0" * 5000),
                "not a catalog file (line 1 is not JSON)",
                id="over-long-integer",
            ),
        ],
    )
    def test_bad_header_leaves_no_file(self, capsys, tmp_path, text, message):
        path, tsv = tmp_path / "cat.jsonl", tmp_path / "out.tsv"
        path.write_text(text)
        rc, out, err = run(capsys, "export-table", str(path), "-o", str(tsv))
        assert (rc, out, err) == (1, "", f"error: {message}\n")
        assert not tsv.exists()

    def test_over_long_json_integer_in_a_record(self, capsys, tmp_path):
        # json.loads raises a plain ValueError for an integer over int()'s limit.
        path = tmp_path / "cat.jsonl"
        header = '{"format": "selink-catalog", "version": 2}\n'
        path.write_text(header + '{"betti": 1%s}\n' % ("0" * 5000))
        rc, out, err = run(capsys, "export-table", str(path))
        assert rc == 1 and out.startswith("presentation\t") and out.count("\n") == 1
        assert err.startswith("error: catalog line 2 is not JSON (") and err.count("\n") == 1

    def test_undecodable_catalog(self, capsys, tmp_path):
        path, tsv = tmp_path / "cat.jsonl", tmp_path / "out.tsv"
        path.write_bytes(b"\xff\xfe\x00\n")
        rc, out, err = run(capsys, "export-table", str(path), "-o", str(tsv))
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not tsv.exists()

    def test_rows_streamed_one_at_a_time(self, capsys, tmp_path, monkeypatch):
        # Each row is written before the next record line is read, so the
        # export never holds more than one record.
        cat = tmp_path / "cat.jsonl"
        argv = ("batch", "--length", "3", "--max-exponent", "4", "-o", str(cat))
        assert run(capsys, *argv)[0] == 0
        events = []

        class Catalog(io.StringIO):
            def __next__(self):
                line = super().__next__()
                events.append("read")
                return line

        class Stream(io.StringIO):
            def write(self, text):
                events.append("write")

        monkeypatch.setattr(cli, "open", lambda path: Catalog(cat.read_text()), raising=False)
        monkeypatch.setattr(cli.sys, "stdout", Stream())
        assert main(["export-table", str(cat)]) == 0
        assert events == ["read", "write"] + ["read", "write"] * 10

    def test_refuses_input_as_output(self, capsys, tmp_path):
        cat = tmp_path / "cat.jsonl"
        run(capsys, "batch", "--length", "3", "--max-exponent", "3", "-o", str(cat))
        before = cat.read_text()
        link = tmp_path / "link.jsonl"
        link.symlink_to(cat)
        for output in (cat, link, f"{tmp_path}/./cat.jsonl"):
            rc, out, err = run(capsys, "export-table", str(cat), "-o", str(output))
            assert (rc, out) == (1, "")
            assert err == f"error: output {output} is the input catalog\n"
            assert cat.read_text() == before

    def test_bad_record_line_leaves_partial_table(self, capsys, tmp_path):
        # Rows are written as records are read, so the rows before a bad
        # record line are already out when it stops the export.
        cat, tsv = tmp_path / "cat.jsonl", tmp_path / "out.tsv"
        run(capsys, "batch", "--length", "3", "--max-exponent", "3", "-o", str(cat))
        lines = cat.read_text().splitlines(keepends=True)
        for line, message in [
            (
                '{"presentation": "x", "zzz": 0}',
                "catalog line 4: unknown catalog record fields: ['zzz']",
            ),
            ('{"presentation": ', "catalog line 4 is not JSON (Expecting value)"),
            ("5", "catalog line 4 is not a record: 5"),
            ('["presentation"]', "catalog line 4 is not a record: ['presentation']"),
            (
                '{"presentation": "x", "weights": 5}',
                "catalog line 4: catalog record field weights is not a list of ints: 5",
            ),
            (
                '{"presentation": "x", "torsion": "2"}',
                "catalog line 4: catalog record field torsion is not a list of ints: '2'",
            ),
        ]:
            cat.write_text("".join(lines[:3]) + line + "\n" + lines[3])
            rc, out, err = run(capsys, "export-table", str(cat), "-o", str(tsv))
            assert (rc, out) == (1, "")
            assert err == f"error: {message}\n"
            assert tsv.read_text().splitlines()[0].startswith("presentation\t")
            assert len(tsv.read_text().splitlines()) == 3

    def test_mistyped_field_leaves_partial_table(self, capsys, tmp_path):
        # A record line of the right shape whose fields hold the wrong
        # types is refused like any other malformed line.
        cat, tsv = tmp_path / "cat.jsonl", tmp_path / "out.tsv"
        run(capsys, "batch", "--length", "3", "--max-exponent", "3", "-o", str(cat))
        lines = cat.read_text().splitlines(keepends=True)
        for line, message in [
            ('{"presentation": "x", "betti": "lots", "n": [1]}', "n is not an int: [1]"),
            ('{"presentation": "x", "betti": "lots"}', "betti is not an int: 'lots'"),
            ('{"presentation": "x", "moduli": true}', "moduli is not an int: True"),
            ('{"presentation": "x", "rule": 7}', "rule is not a string: 7"),
            ('{"betti": 1}', "presentation is not a string: None"),
        ]:
            cat.write_text("".join(lines[:3]) + line + "\n" + lines[3])
            rc, out, err = run(capsys, "export-table", str(cat), "-o", str(tsv))
            assert (rc, out) == (1, "")
            assert err == f"error: catalog line 4: catalog record field {message}\n"
            assert len(tsv.read_text().splitlines()) == 3


# Each rendering command with --format records and table, and the bytes
# it prints; "{cone}" stands for the conifold cone file.
FORMATTED_OUTPUT = [
    (
        "classify w=1,1,1,4,6 d=12",
        '{"d": 12, "dim": 7, "index": 1, "n": 4, "type": "positive", "w": [1, 1, 1, 4, 6]}\n',
        "type\tindex\tn\tdim\tw\td\npositive\t1\t4\t7\t1,1,1,4,6\t12\n",
    ),
    (
        "homology bp=3,3,3,3,3",
        '{"applicability": "proven", "b": 10, "degree": 3, "torsion": [3]}\n',
        "b\ttorsion\tdegree\tapplicability\n10\t3\t3\tproven\n",
    ),
    (
        "verdict bp=2,3,5",
        '{"margin": "1/30", "rule": "ghigi_kollar", "status": "se_exists", "type": "positive"}\n',
        "type\tstatus\trule\tmargin\npositive\tse_exists\tghigi_kollar\t1/30\n",
    ),
    ("dim5-name bp=2,2,2,2", '{"name": "M_inf"}\n', "name\nM_inf\n"),
    (
        "se-table --betti 0 --m 5,5",
        '{"condition": null, "manifold": "2M_5", "row": "2M_5", "status": "yes"}\n',
        "manifold\tstatus\trow\tcondition\n2M_5\tyes\t2M_5\t-\n",
    ),
    ("casson 2 3 5", '{"casson": -1}\n', "casson\n-1\n"),
    ("tight-count 5 1", '{"count": 4}\n', "count\n4\n"),
    (
        "moduli w=1,1,1,4,6 d=12",
        '{"delta": -12, "moduli": 254, "reference": 266}\n',
        "moduli\treference\tdelta\n254\t266\t-12\n",
    ),
    ("toric gamma {cone}", '{"gamma": [-1, 0, 0]}\n', "gamma\n-1,0,0\n"),
    (
        "toric volume {cone} --xi 3,3/2,3/2",
        '{"float": 0.5925925925925926, "volume": "16/27"}\n',
        "volume\n16/27\n",
    ),
    (
        "toric minimize {cone}",
        '{"grad_norm": "0", "iterations": 0, "volume": "0.592592592593", "xi": "3,1.5,1.5"}\n',
        "xi\tvolume\titerations\tgrad_norm\n3,1.5,1.5\t0.592592592593\t0\t0\n",
    ),
]


class TestOptionPlacement:
    @pytest.fixture
    def files(self, tmp_path, capsys):
        cone, catalog_path = tmp_path / "conifold.txt", tmp_path / "cat.jsonl"
        config = tmp_path / "config.json"
        cone.write_text(CONIFOLD_FILE)
        config.write_text('{"format": "records"}')
        argv = ("batch", "--length", "3", "--max-exponent", "3", "-o", str(catalog_path))
        assert run(capsys, *argv)[0] == 0
        return {"cone": str(cone), "catalog": str(catalog_path), "config": str(config)}

    @pytest.mark.parametrize("command, records, table", FORMATTED_OUTPUT)
    def test_format_after_each_query(self, capsys, files, command, records, table):
        tokens = command.format(**files).split()
        head = 2 if tokens[0] == "toric" else 1
        for fmt, expected in (("records", records), ("table", table)):
            rc, out, _ = run(capsys, *tokens[:head], "--format", fmt, *tokens[head:])
            assert (rc, out) == (0, expected)
            rc, out, _ = run(capsys, *tokens, "--format", fmt)
            assert (rc, out) == (0, expected)

    @pytest.mark.parametrize(
        "command",
        [
            "--format records homology bp=2,3,5",
            "--jobs 2 homology bp=2,3,5",
            "--config {config} homology bp=2,3,5",
            "homology --config {config} bp=2,3,5",
            "toric --format records volume {cone} --xi 3,3/2,3/2",
            "casson --jobs 2 2 3 5",
            "batch --format records --length 3 --max-exponent 3",
            "export-table --jobs 2 {catalog}",
        ],
    )
    def test_misplaced_option_is_usage_error(self, capsys, files, command):
        rc, out, err = run(capsys, *command.format(**files).split())
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, message",
        [
            ("--format records homology bp=2,3,5", "selink does not take --format"),
            ("toric --jobs 2 gamma {cone}", "selink toric does not take --jobs"),
            ("casson --jobs 2 2 3 5", "selink casson does not take --jobs"),
        ],
    )
    def test_misplaced_option_is_named(self, capsys, files, command, message):
        # argparse alone would complain about the next token instead.
        rc, out, err = run(capsys, *command.format(**files).split())
        assert (rc, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command, message",
        [
            (
                "batch --jobs x --length 3 --max-exponent 3",
                "argument --jobs: invalid int value: 'x'",
            ),
            ("batch --len 3 --max 3 --jobs=x", "argument --jobs: invalid int value: 'x'"),
            ("toric minimize {cone} --grad-tol -inf", "argument --grad-tol: expected one argument"),
            ("export-table -o{catalog}", "the following arguments are required: catalog"),
            ("casson --format records 2 3", "the following arguments are required: a2"),
        ],
    )
    def test_placed_option_keeps_argparse_text(self, capsys, files, command, message):
        # Options where their command takes them, abbreviated, with an
        # attached value or before a value that starts with '-'.
        rc, out, err = run(capsys, *command.format(**files).split())
        assert (rc, out, err) == (1, "", f"error: {message}\n")


class TestExitCodes:
    def test_no_arguments_prints_help(self, capsys):
        rc, out, _ = run(capsys)
        assert rc == 0
        assert "usage:" in out

    def test_unknown_command(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 1
        assert err.startswith("error:")

    def test_bad_presentation(self, capsys):
        rc, _, err = run(capsys, "classify", "w=1,2", "d=oops")
        assert rc == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("presentation", ["bp=--5,3,3", "bp=²,3,5", "w=1,1,1 d=--3"])
    def test_integer_lookalike_is_domain_error(self, capsys, presentation):
        # Tokens that str.isdigit accepts and int refuses.
        rc, out, err = run(capsys, "classify", *presentation.split())
        assert (rc, out) == (1, "")
        assert err.startswith("error: token ") and err.count("\n") == 1

    # Every place the CLI reads an integer: the command, with {x} for the
    # value, and for the toric ones the text of {file}.
    INTEGER_SITES = [
        ("se-table --betti {x}", None),
        ("se-table --betti 0 --m {x}", None),
        ("se-table --betti 0 --m 2,{x}", None),
        ("casson {x} 3 5", None),
        ("casson 2 {x} 5", None),
        ("casson 2 3 {x}", None),
        ("tight-count {x} 3", None),
        ("tight-count 5 {x}", None),
        ("batch --length {x} --max-exponent 3", None),
        ("batch --length 3 --max-exponent {x}", None),
        ("batch --jobs {x} --length 3 --max-exponent 3", None),
        ("toric gamma {file}", "1 0 0\n1 1 0\n1 1 1\n1 {x} 1\n"),
        ("toric gamma --weights {file}", "{x} 4\n1 1 -1 -1\n"),
        ("toric gamma --weights {file}", "1 {x}\n1 1 -1 -1\n"),
        ("toric gamma --weights {file}", "1 4\n1 1 {x} -1\n"),
    ]

    @pytest.mark.parametrize(
        "command, text, value",
        [
            (command, text, value)
            for command, text in INTEGER_SITES
            for value in ["2_2", "+3", "--5", "²", "7" * 5000]
            # Whitespace separates the integers of --m and of a file.
            + ([] if text or "--m" in command.split() else [" 3"])
        ],
        ids=lambda v: v and v[:40],
    )
    def test_integer_lookalike_at_every_site(self, capsys, tmp_path, command, text, value):
        # int() would read '2_2', '+3' and ' 3' as 22, 3 and 3.
        path = tmp_path / "input.txt"
        if text:
            path.write_text(text.format(x=value))
        argv = [token.format(x=value, file=path) for token in command.split()]
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 250  # a long value is cut, not echoed whole

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("classify", "bp=2,3," + "7" * 5000),
                "token 'bp=2,3," + "7" * 30 + "...' at position 0: "
                "5000 digits, over the limit of 4300",
            ),
            (
                ("casson", "2", "3", "7" * 5000),
                "argument a2: invalid int value: '" + "7" * 37 + "...'",
            ),
        ],
        ids=["presentation", "argument"],
    )
    def test_long_value_is_cut_in_the_error_line(self, capsys, argv, message):
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (1, "", f"error: {message}\n")

    def test_internal_inconsistency_is_exit_2(self, capsys):
        # Fractional Betti sum trips a violated invariant, not a usage error.
        rc, _, err = run(capsys, "homology", "w=3,3,4", "d=6")
        assert rc == 2
        assert err.startswith("internal error:")

    def test_bad_jobs_value(self, capsys):
        rc, _, err = run(capsys, "batch", "--jobs", "0", "--length", "3", "--max-exponent", "3")
        assert rc == 1
        assert "--jobs" in err

    def test_worker_count_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert [_worker_count(j) for j in (1, 3, 4, 5, 10**9)] == [1, 3, 4, 4, 4]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(8) == 1
        with pytest.raises(DomainError, match="--jobs"):
            _worker_count(0)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("selink ")
