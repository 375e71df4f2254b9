"""End-to-end CLI flows over temp files."""

import hashlib
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import forestbound as fb
from forestbound import cli
from forestbound.cli import main
from forestbound.formats import dump_forest, dump_path_csv, dump_pvalues_csv

from oracles import (
    EXAMPLE_ATOMS,
    EXAMPLE_COMPLETION,
    EXAMPLE_M,
    EXAMPLE_PATH,
    EXAMPLE_REGIONS,
    CURVE_FAULT_SCRIPT,
)


@pytest.fixture
def family_file(tmp_path, example_family):
    path = tmp_path / "family.forest"
    path.write_text(dump_forest(example_family))
    return path


@pytest.fixture
def path_file(tmp_path):
    path = tmp_path / "path.csv"
    path.write_text(dump_path_csv(EXAMPLE_PATH))
    return path


class TestValidate:
    def test_valid_family(self, family_file, capsys):
        assert main(["validate", "--in", str(family_file)]) == 0
        out = capsys.readouterr().out
        assert "m=25" in out and "complete=true" in out

    def test_overlap_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.forest"
        bad.write_text(
            json.dumps(
                {
                    "m": 3,
                    "atom_sizes": [1, 1, 1],
                    "regions": [
                        {"i": 1, "j": 2, "zeta": 0},
                        {"i": 2, "j": 3, "zeta": 0},
                    ],
                }
            )
        )
        assert main(["validate", "--in", str(bad)]) == 2
        assert "overlap" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.forest"
        bad.write_text("{not json")
        assert main(["validate", "--in", str(bad)]) == 2
        for sizes in ("1", "null"):  # atom sizes that are no sequence
            bad.write_text(f'{{"m": 1, "atom_sizes": {sizes}, "regions": []}}')
            assert main(["validate", "--in", str(bad)]) == 2
            assert "atom sizes must be a sequence" in capsys.readouterr().err
        bad.write_text("[" * 100000 + "]" * 100000)
        assert main(["validate", "--in", str(bad)]) == 2
        assert "nests too deeply" in capsys.readouterr().err
        bad.write_bytes(b'\xff\xfe{"m": 1}')
        assert main(["validate", "--in", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad} is not UTF-8 text\n"

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["validate", "--in", str(tmp_path / "nope.forest")]) == 3

    def test_usage_error_exits_1(self):
        assert main(["validate"]) == 1
        assert main(["frobnicate"]) == 1


class TestPrune:
    def test_report_lists_removed_region(self, tmp_path, family_file, capsys):
        out = tmp_path / "pruned.forest"
        report = tmp_path / "removed.csv"
        code = main(
            [
                "prune",
                "--in",
                str(family_file),
                "--out",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        assert report.read_text() == "i,j\n6,7\n"
        assert "removed=1 vstar_full=10" in capsys.readouterr().out
        pruned = fb.ForestFamily(
            **{
                "m": 25,
                "atom_sizes": EXAMPLE_ATOMS,
                "regions": [
                    (i, j, z)
                    for (i, j, z) in EXAMPLE_REGIONS + EXAMPLE_COMPLETION
                    if (i, j) != (6, 7)
                ],
            }
        )
        from forestbound.formats import parse_forest

        assert parse_forest(out.read_text()) == pruned

    def test_incomplete_family_exits_2(self, tmp_path):
        f = tmp_path / "partial.forest"
        f.write_text(
            dump_forest(fb.ForestFamily(EXAMPLE_M, EXAMPLE_ATOMS, EXAMPLE_REGIONS))
        )
        assert main(["prune", "--in", str(f), "--out", str(tmp_path / "x")]) == 2


class TestIncompleteFamily:
    @pytest.fixture
    def partial_file(self, tmp_path):
        f = tmp_path / "partial.forest"
        f.write_text(
            dump_forest(fb.ForestFamily(EXAMPLE_M, EXAMPLE_ATOMS, EXAMPLE_REGIONS))
        )
        return f

    def test_vstar_and_curve_exit_2(self, tmp_path, partial_file, path_file, capsys):
        out = tmp_path / "curve.csv"
        family = ["--family", str(partial_file)]
        assert main(["vstar", *family, "--sel", str(path_file)]) == 2
        assert "forestbound complete" in capsys.readouterr().err
        argv = ["curve", *family, "--path", str(path_file), "--out", str(out)]
        assert main(argv) == 2
        assert "forestbound complete" in capsys.readouterr().err
        assert not out.exists()

    def test_curve_after_complete(self, tmp_path, partial_file, path_file):
        completed = tmp_path / "complete.forest"
        out = tmp_path / "curve.csv"
        argv = ["complete", "--in", str(partial_file), "--out", str(completed)]
        assert main(argv) == 0
        argv = ["curve", "--family", str(completed), "--path", str(path_file)]
        assert main([*argv, "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[2]) for r in rows] == [1, 2, 3, 3, 4, 5, 5, 5, 5]


class TestCurve:
    def test_golden_curve_column(self, tmp_path, family_file, path_file):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "curve",
                "--family",
                str(family_file),
                "--path",
                str(path_file),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[2]) for r in rows] == [1, 2, 3, 3, 4, 5, 5, 5, 5]

    def test_pruned_input_gives_identical_file(
        self, tmp_path, family_file, path_file
    ):
        # curve prunes before it runs, so a pruned input changes nothing.
        pruned_family = tmp_path / "pruned.forest"
        argv = ["prune", "--in", str(family_file), "--out", str(pruned_family)]
        assert main(argv) == 0
        assert pruned_family.read_text() != family_file.read_text()
        plain = tmp_path / "plain.csv"
        pruned = tmp_path / "pruned.csv"
        args = ["curve", "--path", str(path_file)]
        assert main(args + ["--family", str(family_file), "--out", str(plain)]) == 0
        argv = args + ["--family", str(pruned_family), "--out", str(pruned)]
        assert main(argv) == 0
        assert plain.read_text() == pruned.read_text()
        argv = args + ["--family", str(family_file), "--out", str(pruned)]
        assert main(argv + ["--prune"]) == 1

    def test_audit_flag(self, tmp_path, family_file, path_file):
        # An audit that passes writes the file the unaudited run writes.
        pfile = tmp_path / "p.csv"
        pfile.write_text(dump_pvalues_csv([(i % 7 + 1) / 10 for i in range(25)]))
        plain, audited = tmp_path / "plain.csv", tmp_path / "audited.csv"
        for order in (["--path", str(path_file)], ["--pvalues", str(pfile)]):
            argv = ["curve", "--family", str(family_file), *order]
            assert main([*argv, "--out", str(plain)]) == 0
            assert main([*argv, "--out", str(audited), "--audit"]) == 0
            assert audited.read_text() == plain.read_text()

    def test_audit_sees_pruning_faults(
        self, tmp_path, monkeypatch, capsys, family_file, path_file
    ):
        # Dropping the non-dominated region (2, 3) after pruning loosens
        # V_9 from 5 to 6; vstar on the family as read shows it.
        real = cli.prune

        def faulty_prune(family):
            pruned = real(family).pruned_family
            kept = [(r.key.i, r.key.j, r.zeta) for r in pruned.regions()]
            kept.remove((2, 3, pruned.zeta((2, 3))))
            cut = fb.ForestFamily(pruned.m, pruned.atom_sizes, kept)
            return types.SimpleNamespace(pruned_family=cut)

        monkeypatch.setattr(cli, "prune", faulty_prune)
        out = tmp_path / "curve.csv"
        argv = ["curve", "--family", str(family_file), "--path", str(path_file)]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1].split(",")[2] == "6"  # V_9
        out.unlink()
        assert main([*argv, "--out", str(out), "--audit"]) == cli.EXIT_AUDIT
        err = capsys.readouterr().err
        assert err.startswith("audit error: t=9: fast_curve gives V_t=6, ")
        assert not out.exists()

    def test_audit_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        namespace = {}
        exec(CURVE_FAULT_SCRIPT, namespace)
        loosen, real = namespace["loosen"], cli.fast_curve
        monkeypatch.setattr(cli, "fast_curve", lambda f, path: real(loosen(f), path))
        family = tmp_path / "family.forest"
        family.write_text(dump_forest(namespace["source"]))
        path = tmp_path / "path.csv"
        path.write_text(dump_path_csv([3, 1]))
        out = tmp_path / "curve.csv"
        argv = ["curve", "--family", str(family), "--path", str(path)]
        assert main([*argv, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["1", "2"]  # the loosened root
        out.unlink()
        assert main([*argv, "--out", str(out), "--audit"]) == cli.EXIT_AUDIT == 4
        err = capsys.readouterr().err
        assert err.startswith("audit error: t=2: fast_curve gives V_t=2, ")
        assert not out.exists()

    def test_audited_curve_in_a_real_process(self, tmp_path, family_file, path_file):
        # Only a real process shows the exit code and stderr of an audit
        # failure; python -O checks that the audit is no bare assert.
        namespace = {}
        exec(CURVE_FAULT_SCRIPT, namespace)
        faulty = tmp_path / "faulty.forest"
        faulty.write_text(dump_forest(namespace["source"]))
        fault_path = tmp_path / "fault_path.csv"
        fault_path.write_text(dump_path_csv([3, 1]))
        out = tmp_path / "curve.csv"
        src = os.path.dirname(os.path.dirname(fb.__file__))
        env = dict(os.environ, PYTHONPATH=src)

        def run(prelude, family, path):
            argv = ["curve", "--family", str(family), "--path", str(path)]
            argv += ["--out", str(out), "--audit"]
            script = (
                f"{prelude}import sys\nfrom forestbound import cli\n"
                f"sys.exit(cli.main({argv!r}))\n"
            )
            return subprocess.run(
                [sys.executable, "-O", "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )

        good = run("", family_file, path_file)
        assert good.returncode == 0, good.stderr
        rows = out.read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[2]) for r in rows] == [1, 2, 3, 3, 4, 5, 5, 5, 5]
        out.unlink()
        patch = (
            "from forestbound import cli\nreal = cli.fast_curve\n"
            "cli.fast_curve = lambda f, path: real(loosen(f), path)\n"
        )
        bad = run(CURVE_FAULT_SCRIPT + patch, faulty, fault_path)
        assert bad.returncode == 4
        assert "Traceback" not in bad.stderr
        assert bad.stderr.startswith("audit error: t=2: fast_curve gives V_t=2, ")
        assert not out.exists()

    def test_pvalues_ordering(self, tmp_path, family_file):
        pfile = tmp_path / "p.csv"
        pvals = [(i % 7 + 1) / 10 for i in range(25)]
        pfile.write_text(dump_pvalues_csv(pvals))
        out = tmp_path / "curve.csv"
        code = main(
            [
                "curve",
                "--family",
                str(family_file),
                "--pvalues",
                str(pfile),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 26

    def test_pvalues_rows_follow_the_curve_ordering(self, tmp_path, family_file):
        # Ties break by ascending hypothesis index in both the hypothesis
        # column and the curve.
        pfile = tmp_path / "p.csv"
        pvals = [(i * 7 % 5) / 4 for i in range(25)]
        pfile.write_text(dump_pvalues_csv(pvals))
        out = tmp_path / "curve.csv"
        argv = ["curve", "--family", str(family_file), "--pvalues", str(pfile)]
        assert main([*argv, "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        path = sorted(range(1, 26), key=lambda h: (pvals[h - 1], h))
        assert [int(r[1]) for r in rows] == path
        family = fb.ForestFamily(
            EXAMPLE_M, EXAMPLE_ATOMS, EXAMPLE_REGIONS + EXAMPLE_COMPLETION
        )
        curve = fb.curve_from_pvalues(family, pvals)
        assert [int(r[2]) for r in rows] == list(curve.values[1:])
        assert curve == fb.fast_curve(family, path)

    def test_path_and_pvalues_conflict(self, tmp_path, family_file, path_file):
        code = main(
            [
                "curve",
                "--family",
                str(family_file),
                "--path",
                str(path_file),
                "--pvalues",
                str(path_file),
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    def test_path_options_checked_before_reading_the_family(self, tmp_path):
        missing = tmp_path / "missing.json"
        out = tmp_path / "c.csv"
        argv = ["curve", "--family", str(missing), "--out", str(out)]
        assert main(argv) == 1
        assert main([*argv, "--path", str(missing), "--pvalues", str(missing)]) == 1
        assert main([*argv, "--path", str(missing)]) == 3
        assert not out.exists()

    def test_bad_path_exits_2(self, tmp_path, family_file):
        bad = tmp_path / "bad_path.csv"
        bad.write_text("hypothesis_index\n11\n11\n")
        code = main(
            [
                "curve",
                "--family",
                str(family_file),
                "--path",
                str(bad),
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        bad.write_bytes(b"hypothesis_index\n11\n\xff\n")
        argv = ["vstar", "--family", str(family_file), "--sel", str(bad)]
        assert main(argv) == 2


class TestCurveCsvDigest:
    """``forestbound curve --pvalues`` on seeded DKWM dyadic families keeps
    the bytes the per-row ``Decimal`` writer wrote; the digests were taken
    from that writer's output."""

    DIGESTS = {
        10: ("41d9822f31e4f8747a32eda3cc9ee739aaffed2b0ce7a20976c4a877b3e56d25", 280715),
        14: ("737763e93f8daae0297572ff4c12ce963a3d3576b3d59055fd229261cc2577ca", 5004844),
    }

    @pytest.mark.parametrize("height", [10, 14])  # m = 2**13 and 2**17
    def test_digest(self, tmp_path, height):
        atom_size = 16
        family = fb.build_dyadic(height, atom_size)
        # numpy only, so the p-values are the same bits everywhere: uniforms,
        # a thousandfold smaller in every tenth atom.
        pvalues = np.random.default_rng(2026).random(family.m)
        signal = np.arange(family.n_atoms) % 10 == 0
        pvalues[np.repeat(signal, atom_size)] *= 1e-3
        family_file = tmp_path / "family.forest"
        family_file.write_text(dump_forest(fb.zeta_dkwm(family, pvalues, 0.05)))
        pfile = tmp_path / "p.csv"
        pfile.write_text(dump_pvalues_csv(pvalues))
        out = tmp_path / "curve.csv"
        argv = ["curve", "--family", str(family_file), "--pvalues", str(pfile)]
        assert main(argv + ["--out", str(out)]) == 0
        data = out.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == self.DIGESTS[height]


class TestRoundTripCommands:
    def test_gen_dyadic_then_validate(self, tmp_path, capsys):
        f = tmp_path / "dyadic.forest"
        assert main(["gen-dyadic", "--height", "4", "--atom-size", "3", "--out", str(f)]) == 0
        assert main(["validate", "--in", str(f)]) == 0
        assert "m=24" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "height, atom_size", [("0", "2"), ("3", "0")], ids=["height", "atom-size"]
    )
    def test_gen_dyadic_bad_args_exit_1(self, tmp_path, capsys, height, atom_size):
        out = tmp_path / "x.forest"
        argv = ["gen-dyadic", "--height", height, "--atom-size", atom_size]
        assert main([*argv, "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_dyadic_over_size_limit_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.forest"
        argv = ["gen-dyadic", "--height", "40", "--atom-size", "1"]
        assert main([*argv, "--out", str(out)]) == 1
        assert "2147483647" in capsys.readouterr().err
        assert not out.exists()

    def test_complete_command(self, tmp_path):
        f = tmp_path / "partial.forest"
        f.write_text(
            dump_forest(fb.ForestFamily(EXAMPLE_M, EXAMPLE_ATOMS, EXAMPLE_REGIONS))
        )
        out = tmp_path / "complete.forest"
        assert main(["complete", "--in", str(f), "--out", str(out)]) == 0
        from forestbound.formats import parse_forest

        assert parse_forest(out.read_text()).is_complete

    def test_serialize_parse_stable(self, tmp_path, family_file):
        out = tmp_path / "copy.forest"
        assert main(["complete", "--in", str(family_file), "--out", str(out)]) == 0
        assert out.read_text() == family_file.read_text()

    def test_zeta_trivial_command(self, tmp_path, family_file):
        out = tmp_path / "zeta.forest"
        code = main(
            ["zeta", "--in", str(family_file), "--out", str(out), "--zeta", "trivial"]
        )
        assert code == 0
        from forestbound.formats import parse_forest

        assert parse_forest(out.read_text()) == fb.zeta_trivial(
            fb.ForestFamily(
                EXAMPLE_M, EXAMPLE_ATOMS, EXAMPLE_REGIONS + EXAMPLE_COMPLETION
            )
        )

    def test_zeta_dkwm_command(self, tmp_path, family_file):
        pfile = tmp_path / "p.csv"
        pfile.write_text(dump_pvalues_csv([0.5] * 25))
        out = tmp_path / "zeta.forest"
        code = main(
            [
                "zeta",
                "--in",
                str(family_file),
                "--out",
                str(out),
                "--zeta",
                "dkwm",
                "--alpha",
                "0.1",
                "--pvalues",
                str(pfile),
            ]
        )
        assert code == 0

    def test_zeta_dkwm_without_pvalues_is_a_usage_error(
        self, tmp_path, family_file, capsys
    ):
        out = tmp_path / "zeta.forest"
        argv = ["zeta", "--in", str(family_file), "--out", str(out), "--zeta", "dkwm"]
        assert main(argv) == 1
        assert "needs --pvalues" in capsys.readouterr().err
        assert not out.exists()

    def test_vstar_command(self, tmp_path, family_file, capsys):
        sel = tmp_path / "sel.csv"
        sel.write_text(dump_path_csv([11, 17, 12, 13, 18, 3]))
        assert main(["vstar", "--family", str(family_file), "--sel", str(sel)]) == 0
        assert capsys.readouterr().out.strip() == "5"


class TestBench:
    def test_smoke(self, tmp_path, capsys):
        csv_out = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "--m",
                "16",
                "--height",
                "3",
                "--signal-leaves",
                "1,3",
                "--n-repl",
                "1",
                "--seed",
                "1",
                "--out-csv",
                str(csv_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fast.pruned" in out
        assert csv_out.read_text().startswith("expr,min,lq,mean,median,uq,max,neval")

    def test_bad_scenario_flags_exit_1(self, capsys):
        assert main(["bench", "--m", "10", "--height", "3"]) == 1
        capsys.readouterr()
        argv = ["bench", "--m", "16", "--height", "3", "--signal-leaves", "1"]
        assert main([*argv, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "usage error: seed must be >= 0, got -1\n"

    def test_huge_height_exits_1_before_any_work(self, capsys):
        # 2**(H-1) is never computed, so H = 10**7 costs nothing.
        assert main(["bench", "--m", "16", "--height", str(10**7)]) == 1
        err = capsys.readouterr().err
        assert err == "usage error: tree height must be <= 32, got 10000000\n"

    def test_oversized_m_exits_1_before_any_work(self, monkeypatch, capsys):
        def unreachable(cfg):
            raise AssertionError("bench ran an oversized scenario")

        monkeypatch.setattr(cli.sim, "run_scenario", unreachable)
        assert main(["bench", "--m", str(2**31), "--height", "5"]) == 1
        assert capsys.readouterr().err.startswith("usage error: m=2147483648 ")


class TestNumbersReadAsCsvEntries:
    """Numbers on the command line follow the CSV readers' rule: argparse's
    int and float would read "1_0" as 10 and Arabic-Indic digits as
    digits, so text holding an underscore or a non-ASCII character is a
    usage error."""

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--m", "3_2"),
            ("--height", "٥"),
            ("--alpha", "0.0_5"),
            ("--n-repl", "1_0"),
            ("--seed", "١"),
            ("--signal-leaves", "1_0"),
            ("--signal-leaves", "١"),
            ("--signal-leaves", "2,1_0"),
        ],
    )
    def test_bench(self, monkeypatch, capsys, flag, text):
        def unreachable(cfg):
            raise AssertionError(f"bench ran with {flag} {text}")

        monkeypatch.setattr(cli.sim, "run_scenario", unreachable)
        flags = {"--m": "32", "--height": "5", flag: text}
        assert main(["bench", *(x for pair in flags.items() for x in pair)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert repr(text.split(",")[-1]) in err

    @pytest.mark.parametrize(
        "height, atom_size", [("1_0", "1"), ("3", "١")], ids=["height", "atom-size"]
    )
    def test_gen_dyadic(self, tmp_path, capsys, height, atom_size):
        out = tmp_path / "x.forest"
        argv = ["gen-dyadic", "--height", height, "--atom-size", atom_size]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["0.0_5", "0.٠٥"])
    def test_zeta_alpha(self, tmp_path, family_file, capsys, alpha):
        out = tmp_path / "x.forest"
        argv = ["zeta", "--in", str(family_file), "--out", str(out)]
        assert main([*argv, "--alpha", alpha]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()
