"""Command-line surface: formats, exit codes, caching, determinism."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gegenlab
from gegenlab.cli import build_parser, main
from gegenlab.serialize import cache_read, cache_write, load_golden
from gegenlab.gegenbauer import gen_eigen


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestGen:
    def test_latex_outer_product(self, capsys):
        rc, out, _ = run_cli(["gen", "--rank", "3", "--weight", "1,0,1",
                              "--format", "latex"], capsys)
        assert rc == 0
        assert out.strip() == r"z_1 z_3 - \frac{4}{1+3\kappa}"

    def test_vacuum_text(self, capsys):
        rc, out, _ = run_cli(["gen", "--rank", "2", "--weight", "0,0"], capsys)
        assert rc == 0
        assert out.strip() == "1"

    def test_numeric_coupling_text(self, capsys):
        rc, out, _ = run_cli(["gen", "--rank", "3", "--weight", "2,0,0",
                              "--kappa", "1/2", "--format", "text"], capsys)
        assert rc == 0
        assert out.strip() == "z1^2 - 4/3 z2"

    def test_negative_coupling_as_separate_argument(self, capsys):
        args = ["gen", "--rank", "2", "--weight", "2,0"]
        joined = run_cli(args + ["--kappa=-1/2"], capsys)
        assert joined[0] == 0
        assert run_cli(args + ["--kappa", "-1/2"], capsys) == joined

    def test_json_round_trip(self, capsys):
        rc, out, _ = run_cli(["gen", "--rank", "3", "--weight", "1,1,0",
                              "--format", "json"], capsys)
        assert rc == 0
        obj = json.loads(out)
        assert obj["rank"] == 3 and obj["weight"] == [1, 1, 0]
        monos = [tuple(t["mono"]) for t in obj["terms"]]
        assert monos == sorted(monos, key=lambda w: (sum(w), w), reverse=True)

    def test_method_recurrence_agrees(self, capsys):
        rc1, out1, _ = run_cli(["gen", "--rank", "3", "--weight", "0,2,0",
                                "--method", "recurrence", "--format", "json"], capsys)
        rc2, out2, _ = run_cli(["gen", "--rank", "3", "--weight", "0,2,0",
                                "--format", "json"], capsys)
        assert rc1 == rc2 == 0 and out1 == out2

    def test_determinism(self, capsys):
        args = ["gen", "--rank", "3", "--weight", "2,1,0", "--format", "json"]
        outs = {run_cli(args, capsys)[1] for _ in range(3)}
        assert len(outs) == 1

    def test_bad_weight_usage_error(self, capsys):
        rc, _, err = run_cli(["gen", "--rank", "2", "--weight", "1,0,0"], capsys)
        assert rc == 2

    def test_recurrence_rank_guard(self, capsys):
        rc, _, _ = run_cli(["gen", "--rank", "4", "--weight", "1,0,0,0",
                            "--method", "recurrence"], capsys)
        assert rc == 2

    def test_degenerate_coupling(self, capsys):
        rc, _, err = run_cli(["gen", "--rank", "3", "--weight", "2,0,0",
                              "--kappa", "-1"], capsys)
        assert rc == 3
        assert "degeneracy" in err


class TestParserReuse:
    """The parser is built once per process; reusing it changes no output."""

    SEQUENCE = (["gen", "--rank", "2"],  # no --weight: usage error
                ["gen", "--rank", "2", "--weight", "1,1", "--kappa", "-1/2"],  # κ-pole
                ["gen", "--rank", "3", "--weight", "1,0,1", "--format", "json"])

    def _run(self, capsys, rebuild):
        results = []
        for args in self.SEQUENCE * 2:
            if rebuild:
                build_parser.cache_clear()
            results.append(run_cli(args, capsys))
        return results

    def test_same_results_with_and_without_rebuilding(self, capsys):
        rebuilt = self._run(capsys, rebuild=True)
        assert [rc for rc, _, _ in rebuilt] == [2, 3, 0] * 2
        assert all(err for _, _, err in rebuilt[:2])
        assert self._run(capsys, rebuild=False) == rebuilt
        assert build_parser.cache_info().hits >= len(self.SEQUENCE) * 2 - 1


class TestCache:
    def test_round_trip(self, tmp_path):
        p = gen_eigen((0, 2, 0), 4)
        cache_write(tmp_path, (0, 2, 0), p)
        q, status = cache_read(tmp_path, 3, (0, 2, 0))
        assert status == "hit" and q == p

    def test_corrupt_entry_ignored(self, tmp_path, capsys):
        p = gen_eigen((1, 1, 0), 4)
        path = cache_write(tmp_path, (1, 1, 0), p)
        path.write_text(path.read_text().replace('"terms"', '"tersm"', 1))
        q, status = cache_read(tmp_path, 3, (1, 1, 0))
        assert q is None and status == "corrupt"
        rc, out, err = run_cli(["gen", "--rank", "3", "--weight", "1,1,0",
                                "--cache", str(tmp_path)], capsys)
        assert rc == 0 and "ignored" in err

    def test_non_object_entry_regenerates(self, tmp_path, capsys):
        path = cache_write(tmp_path, (1, 0), gen_eigen((1, 0), 3))
        path.write_text("[1, 2]")
        q, status = cache_read(tmp_path, 2, (1, 0))
        assert q is None and status == "corrupt"
        args = ["gen", "--rank", "2", "--weight", "1,0"]
        _, fresh, _ = run_cli(args, capsys)
        rc, out, err = run_cli(args + ["--cache", str(tmp_path)], capsys)
        assert rc == 0 and "ignored (corrupt)" in err and out == fresh

    def test_wrong_rank_entry_regenerates(self, tmp_path, capsys):
        # a well-formed rank-3 entry, checksum included, under a rank-2 name
        path = cache_write(tmp_path, (1, 0), gen_eigen((1, 0, 0), 4))
        path.rename(tmp_path / "p_r2_w1-0.json")
        q, status = cache_read(tmp_path, 2, (1, 0))
        assert q is None and status == "corrupt"
        args = ["gen", "--rank", "2", "--weight", "1,0"]
        _, fresh, _ = run_cli(args, capsys)
        rc, out, err = run_cli(args + ["--cache", str(tmp_path)], capsys)
        assert rc == 0 and "ignored (corrupt)" in err and out == fresh

    def test_version_mismatch_regenerates(self, tmp_path):
        p = gen_eigen((1, 0, 1), 4)
        path = cache_write(tmp_path, (1, 0, 1), p)
        obj = json.loads(path.read_text())
        obj["version"] = 999
        path.write_text(json.dumps(obj))
        q, status = cache_read(tmp_path, 3, (1, 0, 1))
        assert q is None and status == "version-mismatch"

    def test_cache_hit_visible_in_verbose(self, tmp_path, capsys):
        args = ["gen", "--rank", "3", "--weight", "1,0,1",
                "--cache", str(tmp_path), "--verbose"]
        rc, _, err1 = run_cli(args, capsys)
        assert rc == 0 and "generated" in err1
        rc, _, err2 = run_cli(args, capsys)
        assert rc == 0 and "cache hit" in err2

    def test_interrupted_write_keeps_previous_entry(self, tmp_path, monkeypatch):
        old = gen_eigen((1, 0, 0), 4)
        path = cache_write(tmp_path, (1, 0, 0), old)

        def torn_write(self, text, *args, **kwargs):
            with open(self, "w") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError, match="disk full"):
            cache_write(tmp_path, (1, 0, 0), old.scale(2))
        monkeypatch.undo()
        q, status = cache_read(tmp_path, 3, (1, 0, 0))
        assert status == "hit" and q == old
        assert sorted(tmp_path.iterdir()) == [path]

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        from gegenlab import serialize

        old = gen_eigen((0, 0, 1), 4)
        path = cache_write(tmp_path, (0, 0, 1), old)

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(serialize.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            cache_write(tmp_path, (0, 0, 1), old.scale(2))
        monkeypatch.undo()
        q, status = cache_read(tmp_path, 3, (0, 0, 1))
        assert status == "hit" and q == old
        assert sorted(tmp_path.iterdir()) == [path]

    def test_checksum_is_pinned(self, tmp_path):
        path = cache_write(tmp_path, (1, 1), gen_eigen((1, 1), 3))
        assert json.loads(path.read_text())["checksum"] == (
            "1049277d6bb118c71c9e43a5d3abfed9158044ce2fc67683d75d08695c47656f")

    def test_import_leaves_hashlib_unloaded(self):
        # hashlib loads OpenSSL (megabytes of memory); only a cache write
        # or read needs it
        code = ("import pkgutil, importlib, sys, gegenlab\n"
                "for m in pkgutil.iter_modules(gegenlab.__path__):\n"
                "    importlib.import_module('gegenlab.' + m.name)\n"
                "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
        src = str(Path(gegenlab.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": pythonpath})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_environment_overrides_flag(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv("GEGENLAB_CACHE", str(env_dir))
        rc, _, _ = run_cli(["gen", "--rank", "2", "--weight", "1,1",
                            "--cache", str(flag_dir)], capsys)
        assert rc == 0
        assert list(env_dir.glob("*.json")) and not flag_dir.exists()


class TestOperators:
    def test_rank2_order2_contains_cross_term(self, capsys):
        rc, out, _ = run_cli(["operators", "--rank", "2", "--order", "2"], capsys)
        assert rc == 0
        assert "(z1 z2 - 9) d/dz1 d/dz2" in out

    def test_rank2_order3_terms(self, capsys):
        rc, out, _ = run_cli(["operators", "--rank", "2", "--order", "3"], capsys)
        assert rc == 0
        assert "(2 z1^3 - 9 z1 z2 + 27) d3/dz1^3" in out
        assert "(2 z2^3 - 9 z1 z2 + 27) d3/dz2^3" in out

    def test_rank3_order2_scaled_term(self, capsys):
        rc, out, _ = run_cli(["operators", "--rank", "3", "--order", "2"], capsys)
        assert rc == 0
        assert "1/2 (3 z1^2 - 8 z2) d2/dz1^2" in out

    def test_unsupported_pair(self, capsys):
        rc, _, _ = run_cli(["operators", "--rank", "3", "--order", "3"], capsys)
        assert rc == 2

    def test_order2_beyond_the_transcribed_ranks(self, capsys):
        rc, out, _ = run_cli(["operators", "--rank", "4", "--order", "2"], capsys)
        assert rc == 0
        assert "4/5 (2 z1^2 - 5 z2) d2/dz1^2" in out
        assert "d2/dz4^2" in out

    def test_order2_needs_two_particles(self, capsys):
        rc, out, err = run_cli(["operators", "--rank", "0", "--order", "2"], capsys)
        assert rc == 2 and not out and "N=1" in err


class TestEval:
    def test_leading_variable(self, capsys):
        rc, out, _ = run_cli(["eval", "--rank", "3", "--weight", "1,0,0",
                              "--kappa", "2/3", "--point", "5,1,7"], capsys)
        assert rc == 0 and out.strip() == "5"

    def test_negative_point_as_separate_argument(self, capsys):
        args = ["eval", "--rank", "2", "--weight", "1,0", "--kappa", "1/2"]
        joined = run_cli(args + ["--point=-1,2"], capsys)
        assert joined[0] == 0 and joined[1].strip() == "-1"
        assert run_cli(args + ["--point", "-1,2"], capsys) == joined

    def test_outer_product_at_unit_coupling(self, capsys):
        rc, out, _ = run_cli(["eval", "--rank", "3", "--weight", "1,0,1",
                              "--kappa", "1", "--point", "2,0,1"], capsys)
        assert rc == 0 and out.strip() == "1"

    def test_corrupt_cache_entry_ignored(self, tmp_path, capsys):
        path = cache_write(tmp_path, (1, 0, 1), gen_eigen((1, 0, 1), 4))
        path.write_text(path.read_text().replace('"terms"', '"tersm"', 1))
        rc, out, err = run_cli(["eval", "--rank", "3", "--weight", "1,0,1",
                                "--kappa", "1", "--point", "2,0,1",
                                "--cache", str(tmp_path)], capsys)
        assert rc == 0 and out.strip() == "1"
        assert "ignored" in err
        assert cache_read(tmp_path, 3, (1, 0, 1)) == (None, "corrupt")

    def test_pole_exit_code(self, capsys):
        rc, _, err = run_cli(["eval", "--rank", "3", "--weight", "2,0,0",
                              "--kappa", "-1", "--point", "1,1,1"], capsys)
        assert rc == 3


class TestVerifyCommand:
    def test_kappa1_passes(self, capsys):
        rc, out, _ = run_cli(["verify", "--suite", "kappa1"], capsys)
        assert rc == 0
        assert "pass" in out

    def test_failed_check_gives_exit_one(self, capsys, monkeypatch):
        from gegenlab import verify as vf

        failing = vf.VerificationReport("stub", [vf.CheckResult(
            "stub check", "fail", expected="1", actual="0")])
        monkeypatch.setattr(vf, "run_suite", lambda *a, **kw: [failing])
        rc, out, _ = run_cli(["verify", "--suite", "kappa1"], capsys)
        assert rc == 1
        assert "fail" in out

    def test_duality_rank2(self, capsys):
        rc, out, _ = run_cli(["verify", "--suite", "duality", "--rank", "2",
                              "--max-degree", "2"], capsys)
        assert rc == 0

    def test_commutators_rank2(self, capsys):
        rc, out, _ = run_cli(["verify", "--suite", "commutators", "--rank", "2",
                              "--max-degree", "4"], capsys)
        assert rc == 0

    def test_json_report_shape(self, capsys):
        rc, out, _ = run_cli(["verify", "--suite", "kappa1",
                              "--format", "json"], capsys)
        assert rc == 0
        reports = json.loads(out)
        assert reports[0]["suite"] == "kappa1"
        assert all(c["status"] == "pass" for c in reports[0]["checks"])

    def test_kappa1_report_values_are_plain_numbers(self):
        from gegenlab.verify import run_suite

        (report,) = run_suite("kappa1")
        assert report.checks
        for check in report.checks:
            assert check.actual in ("0", "1"), check
            assert check.actual == check.expected


RECURRENCE_TABLES = {
    ("2", "0,0"): """\
a(0,0)  0
c(0)    0
""",
    ("2", "2,1"): """\
a(2,1)  (6+11k+3k^2)/(3+8k+7k^2+2k^3)
a(1,2)  (6+23k+25k^2+6k^3)/(6+19k+22k^2+11k^3+2k^4)
c(2)    (2+4k)/(2+3k+k^2)
c(1)    2/(1+k)
""",
    ("3", "1,2,0"): """\
a(1,2)    (6+23k+25k^2+6k^3)/(6+19k+22k^2+11k^3+2k^4)
a(2,1)    (6+11k+3k^2)/(3+8k+7k^2+2k^3)
a(2,0)    0
a(0,2)    (1+3k)/(1+2k+k^2)
c(1)      2/(1+k)
c(2)      (2+4k)/(2+3k+k^2)
c(0)      0
d(1,2,0)  0
d(0,2,1)  (6+14k+4k^2)/(3+9k+9k^2+3k^3)
f(1,2,0)  0
g(1,2,0)  (3+16k+23k^2+6k^3)/(3+12k+18k^2+12k^3+3k^4)
""",
    ("3", "2,1,3"): """\
a(2,1)    (6+11k+3k^2)/(3+8k+7k^2+2k^3)
a(1,2)    (6+23k+25k^2+6k^3)/(6+19k+22k^2+11k^3+2k^4)
a(1,3)    (36+81k+54k^2+9k^3)/(36+72k+53k^2+17k^3+2k^4)
a(3,1)    (12+3k)/(6+7k+2k^2)
c(2)      (2+4k)/(2+3k+k^2)
c(1)      2/(1+k)
c(3)      (6+6k)/(6+5k+k^2)
d(2,1,3)  (120+366k+396k^2+174k^3+24k^4)/(120+332k+366k^2+201k^3+55k^4+6k^5)
d(3,1,2)  (180+894k+1580k^2+1214k^3+404k^4+48k^5)/(180+768k+1341k^2+1227k^3+621k^4+165k^5+18k^6)
f(2,1,3)  (40+112k+64k^2)/(40+84k+66k^2+23k^3+3k^4)
g(2,1,3)  (360+1158k+1291k^2+636k^3+143k^4+12k^5)/(180+708k+1145k^2+976k^3+463k^4+116k^5+12k^6)
""",
}


class TestRecurrenceTable:
    """The rows of `table --kind recurrence`: every coefficient that the
    multiplication rules name, grouped by kind, each label once."""

    @pytest.mark.parametrize("rank,weight", sorted(RECURRENCE_TABLES))
    def test_text_and_json(self, rank, weight, capsys):
        args = ["table", "--rank", rank, "--kind", "recurrence", "--weight", weight]
        rc, out, _ = run_cli(args, capsys)
        assert rc == 0 and out == RECURRENCE_TABLES[rank, weight]
        rows = dict(line.split(None, 1) for line in out.splitlines())
        rc, out, _ = run_cli(args + ["--format", "json"], capsys)
        assert rc == 0
        assert out == json.dumps(rows, indent=2, sort_keys=True) + "\n"

    def test_zero_is_rendered_as_0(self, capsys):
        args = ["table", "--rank", "2", "--kind", "sigma", "--weight", "0,0"]
        rc, out, _ = run_cli(args, capsys)
        assert rc == 0 and out == ("sigma[1,0] at (0, 0)   -16k^2\n"
                                   "sigma[-1,1] at (0, 0)  0\n"
                                   "sigma[0,-1] at (0, 0)  0\n"
                                   "sigma[-1,0] at (0, 0)  0\n"
                                   "sigma[1,-1] at (0, 0)  0\n"
                                   "sigma[0,1] at (0, 0)   16k^2\n")
        rc, out, _ = run_cli(args + ["--format", "json"], capsys)
        assert rc == 0 and list(json.loads(out).values()).count("0") == 4

    def test_rank3_sigma_rows_in_table_order(self, capsys):
        # the single shifts, then the double shifts, as tabulated_shifts(4)
        args = ["table", "--rank", "3", "--kind", "sigma", "--weight", "1,0,1"]
        rc, out, _ = run_cli(args, capsys)
        assert rc == 0 and out == (
            "sigma[1,0,0] at (1, 0, 1)    -(32+144k+208k^2+96k^3)\n"
            "sigma[-1,1,0] at (1, 0, 1)   (32k+64k^2)\n"
            "sigma[0,-1,1] at (1, 0, 1)   0\n"
            "sigma[0,0,-1] at (1, 0, 1)   (96+576k+864k^2+384k^3)/(1+3k)\n"
            "sigma[0,0,1] at (1, 0, 1)    -(32+144k+208k^2+96k^3)\n"
            "sigma[0,1,-1] at (1, 0, 1)   (32k+64k^2)\n"
            "sigma[1,-1,0] at (1, 0, 1)   0\n"
            "sigma[-1,0,0] at (1, 0, 1)   (96+576k+864k^2+384k^3)/(1+3k)\n"
            "sigma[0,1,0] at (1, 0, 1)    -(1024k^2+6144k^3+13056k^4+11264k^5+3072k^6)\n"
            "sigma[1,-1,1] at (1, 0, 1)   0\n"
            "sigma[1,0,-1] at (1, 0, 1)   -(2304+18432k+55296k^2+78336k^3+52992k^4+13824k^5)\n"
            "sigma[-1,0,1] at (1, 0, 1)   (768+3072k+3072k^2-1536k^3-3840k^4-1536k^5)\n"
            "sigma[-1,1,-1] at (1, 0, 1)  (8192k^2+49152k^3+73728k^4+32768k^5)/(1+3k)\n"
            "sigma[0,-1,0] at (1, 0, 1)   0\n")


class TestRankCoverage:
    """The tabulated closed-form families cover ranks 2 and 3 (the order-3
    operator rank 2 only); elsewhere the commands that need them are usage
    errors.  The spectral vector, the order-2 operator and the eigen suite
    hold at every rank, and the duality suite at every rank from 2: at rank
    1 it would compare each z_1 table with itself, and at rank 0 check
    nothing.  The eigen suite needs rank 1 or more."""

    @pytest.mark.parametrize("rank", [1, 4])
    @pytest.mark.parametrize("args", [
        ["gen", "--method", "recurrence"],
        ["table", "--kind", "recurrence"],
        ["table", "--kind", "sigma"],
        ["operators", "--order", "3"],
        ["verify", "--suite", "recurrence"],
        ["verify", "--suite", "commutators"],
        ["verify", "--suite", "sigma"],
    ])
    def test_outside_ranks_two_and_three(self, args, rank, capsys):
        weight = ["--weight", ",".join(["1"] + ["0"] * (rank - 1))]
        rc, out, err = run_cli(args + ["--rank", str(rank)]
                               + (weight if args[0] == "gen" else []), capsys)
        assert rc == 2 and not out and err.startswith("error:")

    @pytest.mark.parametrize("rank", [0, -1])
    @pytest.mark.parametrize("args", [
        ["gen", "--weight", "1"],
        ["eval", "--weight", "1", "--kappa", "1", "--point", "1"],
        ["table", "--kind", "lvector", "--weight", "1"],
        ["table", "--kind", "lvector"],
        ["table", "--kind", "sigma"],
    ])
    def test_rank_below_one_is_named(self, args, rank, capsys):
        rc, out, err = run_cli(args + ["--rank", str(rank)], capsys)
        assert rc == 2 and not out
        assert err.startswith(f"error: rank {rank} is below 1 ")

    @pytest.mark.parametrize("rank,weight,expected", [
        (1, "2", "l[1] at (2,)  (2+k)\nl[2] at (2,)  -(2+k)\n"),
        (4, "2,0,0,0", "l[1] at (2, 0, 0, 0)  (16/5+4k)\n"
                       "l[2] at (2, 0, 0, 0)  -(4/5-2k)\n"
                       "l[3] at (2, 0, 0, 0)  -4/5\n"
                       "l[4] at (2, 0, 0, 0)  -(4/5+2k)\n"
                       "l[5] at (2, 0, 0, 0)  -(4/5+4k)\n"),
    ])
    def test_lvector_at_any_rank(self, rank, weight, expected, capsys):
        rc, out, _ = run_cli(["table", "--rank", str(rank), "--kind", "lvector",
                              "--weight", weight], capsys)
        assert rc == 0 and out == expected

    @pytest.mark.parametrize("rank", [-1, 1, 4])
    def test_sigma_suite_names_itself(self, rank, capsys):
        rc, out, err = run_cli(["verify", "--suite", "sigma", "--rank", str(rank)],
                               capsys)
        assert rc == 2 and not out and "sigma suite" in err
        assert f"(rank {rank})" in err

    @pytest.mark.parametrize("rank", [-1, 0, 1, 4])
    def test_eigen_suite_at_any_rank(self, rank, capsys):
        rc, out, err = run_cli(["verify", "--suite", "eigen", "--rank", str(rank)],
                               capsys)
        if rank < 1:
            assert rc == 2 and not out and f"eigen suite at rank {rank}" in err
        else:
            assert rc == 0 and "suite eigen" in out

    @pytest.mark.parametrize("rank", [0, 1, 4])
    def test_duality_suite_at_any_rank(self, rank, capsys):
        rc, out, err = run_cli(["verify", "--suite", "duality", "--rank", str(rank)],
                               capsys)
        if rank < 2:
            assert rc == 2 and not out and f"rank {rank}" in err
        else:
            assert rc == 0 and "suite duality" in out


class TestEmptySuite:
    """A bound that leaves a suite nothing to check is a usage error."""

    @pytest.mark.parametrize("args", [
        ["--suite", "sigma", "--max-components", "-1"],
        ["--suite", "recurrence", "--max-degree", "-1"],
        ["--suite", "duality", "--max-degree", "-1"],
        ["--suite", "commutators", "--max-degree", "-3"],
    ])
    def test_negative_bound(self, args, capsys):
        rc, out, err = run_cli(["verify"] + args, capsys)
        assert rc == 2 and "pass" not in out
        assert "negative" in err


class TestSuiteOptions:
    """An option that the named suite does not take is a usage error, and so
    is a rank with `--suite all`, which runs each suite at its own ranks."""

    @pytest.mark.parametrize("args,names", [
        (["--suite", "kappa1", "--rank", "7"], ["kappa1 suite", "rank 7"]),
        (["--suite", "all", "--rank", "9"], ["suite all", "rank 9"]),
        (["--suite", "sigma", "--max-degree", "3"], ["sigma suite", "max_degree"]),
        (["--suite", "eigen", "--max-components", "1"], ["eigen suite", "max_components"]),
    ])
    def test_refused(self, args, names, capsys):
        rc, out, err = run_cli(["verify"] + args, capsys)
        assert rc == 2 and not out
        assert all(name in err for name in names), err

    def test_kappa1_at_its_ranks(self, capsys):
        runs = []
        for rank in ([], ["--rank", "2"], ["--rank", "3"]):
            rc, out, _ = run_cli(["verify", "--suite", "kappa1", "--format", "json"]
                                 + rank, capsys)
            assert rc == 0
            runs.append(json.loads(out)[0]["checks"])
        assert len(runs[0]) == 102 and runs[1] == runs[0] and runs[2] == runs[0]


class TestGolden:
    def test_bundle_has_all_entries(self):
        golden = load_golden(3)
        assert len(golden) == 21
        weights = {w for w, _ in golden}
        assert (0, 4, 0) in weights and (1, 0, 1) in weights

    def test_polynomials_canonical_and_monic(self):
        from gegenlab.scalars import kr
        for w, p in load_golden(3):
            assert p.coefficient(w) == kr(1)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _load_toml(path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def test_console_entry_point():
    """The declared `gegenlab` script, run as the wrapper pip generates for it."""
    target = _load_toml(PYPROJECT)["project"]["scripts"]["gegenlab"]
    module, func = target.split(":")
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'gegenlab'; sys.exit({func}())")
    src = str(Path(gegenlab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run([sys.executable, "-c", wrapper,
                           "gen", "--rank", "2", "--weight", "1,0"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "z1"


def _run_module(*args, module="gegenlab"):
    src = str(Path(gegenlab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": pythonpath})


def test_module_entry_point():
    proc = _run_module("verify", "--suite", "appendix", "--rank", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_module_entry_point_bad_flag_is_a_usage_error():
    proc = _run_module("gen", "--no-such-flag")
    assert proc.returncode == 2
    assert "gegenlab" in proc.stderr


def test_cli_module_entry_point():
    proc = _run_module("gen", "--rank", "2", "--weight", "1,0", module="gegenlab.cli")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "z1"


def test_cli_module_bad_flag_is_a_usage_error():
    proc = _run_module("gen", "--no-such-flag", module="gegenlab.cli")
    assert proc.returncode == 2
    assert "gegenlab" in proc.stderr


@pytest.mark.skipif(shutil.which("gegenlab") is None,
                    reason="gegenlab console script not on PATH (package not installed)")
def test_installed_console_script():
    proc = subprocess.run(["gegenlab", "gen", "--rank", "2", "--weight", "1,0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "z1"
