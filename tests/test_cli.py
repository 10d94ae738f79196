"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["apsp"])
        # --algo defaults to None and resolves at dispatch time (2eps
        # unweighted, near-additive weighted); params come from the
        # variant's schema.
        assert args.algo is None
        assert args.eps is None and args.r is None
        assert args.family == "er_sparse"

    def test_bad_algo_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["apsp", "--algo", "nope"])

    def test_registry_drives_choices(self):
        from repro import variants

        apsp_action = next(
            a for a in build_parser()._subparsers._group_actions[0]
            .choices["apsp"]._actions if a.dest == "algo"
        )
        assert set(apsp_action.choices) == {
            s.name for s in variants.cli_algo_variants()
        }

    def test_bad_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["apsp", "--family", "nope"])

    def test_serve_frontend_accepts_only_async(self):
        args = build_parser().parse_args(["serve", "--artifact", "a"])
        assert args.frontend == "async"
        build_parser().parse_args(
            ["serve", "--artifact", "a", "--frontend", "async"]
        )
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(
                ["serve", "--artifact", "a", "--frontend", "threaded"]
            )
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flag", ["--coalesce-window-ms", "--coalesce-max"]
    )
    def test_coalescer_knobs_are_gone(self, flag):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["serve", "--artifact", "a", flag, "1"])
        assert err.value.code == 2


class TestMain:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "er_sparse" in out and "grid" in out

    def test_emulator(self, capsys):
        assert main(["emulator", "--n", "60", "--family", "path"]) == 0
        out = capsys.readouterr().out
        assert "emulator:" in out
        assert "total rounds" in out

    def test_emulator_deterministic(self, capsys):
        assert main(
            ["emulator", "--n", "60", "--family", "grid", "--deterministic"]
        ) == 0
        assert "emulator:" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["near-additive", "3eps", "exact", "spanner"])
    def test_apsp_algos(self, capsys, algo):
        assert main(["apsp", "--algo", algo, "--n", "60"]) == 0
        out = capsys.readouterr().out
        assert "sound" in out
        assert "True" in out

    def test_apsp_2eps(self, capsys):
        assert main(["apsp", "--algo", "2eps", "--n", "60"]) == 0
        assert "(2+eps)" in capsys.readouterr().out

    def test_mssp(self, capsys):
        assert main(["mssp", "--n", "70", "--num-sources", "5"]) == 0
        assert "MSSP" in capsys.readouterr().out

    def test_weighted_apsp(self, capsys):
        assert main(["apsp", "--n", "40", "--max-weight", "3"]) == 0
        out = capsys.readouterr().out
        assert "weights: random integers in [1, 3]" in out
        assert "True" in out

    def test_out_of_range_eps_rejected(self, capsys):
        assert main(["apsp", "--n", "40", "--eps", "1.5"]) == 2
        err = capsys.readouterr().err
        assert "2eps" in err and "0 < eps < 1" in err

    def test_param_the_variant_does_not_take_rejected(self, capsys):
        assert main(["apsp", "--n", "40", "--algo", "exact",
                     "--eps", "0.5"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_weighted_unsupported_algo_rejected(self, capsys):
        assert main(["apsp", "--n", "40", "--algo", "2eps",
                     "--max-weight", "3"]) == 2
        assert "unweighted-only" in capsys.readouterr().err

    def test_weighted_mssp(self, capsys):
        assert main(
            ["mssp", "--n", "40", "--num-sources", "3", "--max-weight", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "weighted" in out
