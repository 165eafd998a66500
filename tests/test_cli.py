"""End-to-end CLI tests, run in-process through main(argv).

Covers each subcommand, the three output formats, config handling and
the exit-code contract: 0 success, 1 domain/usage error, 2 violated
internal invariant.
"""

import json
import os
from dataclasses import replace

import pytest

import selink.catalog as catalog
import selink.cli as cli
from selink import BPExponents, DomainError
from selink.catalog import catalogs_equal, read_catalog
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
            if presentation == BPExponents((2, 3, 4)):
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


class TestConfig:
    def test_config_sets_format(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"format": "records"}')
        rc, out, _ = run(capsys, "homology", "--config", str(cfg), "bp=2,3,5")
        assert rc == 0
        assert json.loads(out)["b"] == 0

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"format": "records"}')
        rc, out, _ = run(
            capsys, "homology", "--config", str(cfg), "--format", "text", "bp=2,3,5"
        )
        assert out == "b=0 torsion=0 proven\n"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"formt": "records"}')
        rc, _, err = run(capsys, "homology", "--config", str(cfg), "bp=2,3,5")
        assert rc == 1
        assert "unknown config keys" in err

    def test_bad_values_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"jobs": 0}')
        rc, _, err = run(capsys, "homology", "--config", str(cfg), "bp=2,3,5")
        assert rc == 1
        cfg.write_text('{"format": "yaml"}')
        rc, _, err = run(capsys, "homology", "--config", str(cfg), "bp=2,3,5")
        assert rc == 1

    def test_missing_config_file(self, capsys):
        rc, _, err = run(capsys, "homology", "--config", "/nonexistent.json", "bp=2,3,5")
        assert rc == 1

    def test_config_not_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        rc, _, err = run(capsys, "homology", "--config", str(cfg), "bp=2,3,5")
        assert rc == 1


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
