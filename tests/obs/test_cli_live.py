"""The ``repro-bfs top`` and ``repro-bfs live record/check`` commands:
parser surface, the --once dashboard degradation, capture recording
(with and without an armed flight recorder) and the replay gate's exit
codes — each invocation through ``main()`` like a real shell call."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

# keep the demo workload tiny: these tests spawn real child processes
SMALL = ["--scale", "5", "--edgefactor", "4", "--roots", "2"]
# every traversal at scale 5 finishes in well under a second, so the
# default graph500.bfs<1.0@0.9 policy stays clean; this one cannot
TIGHT = [
    "--policy",
    "graph500.bfs<0.000001@0.9",
    "--slo-window",
    "0.5",
    "--fast-windows",
    "2",
    "--slow-windows",
    "5",
]


class TestParserSurface:
    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.command == "top"
        assert args.interval == 0.25
        assert args.duration == 120.0
        assert args.once is False
        assert args.scale == 8
        assert args.children == 1
        assert args.child_delay == 0.0
        assert args.policy is None
        assert (args.fast_windows, args.slow_windows) == (5, 60)

    def test_live_record_defaults(self):
        args = build_parser().parse_args(["live", "record"])
        assert args.live_command == "record"
        assert args.out == Path("live.capture")
        assert args.flight_dir is None
        assert args.slo_window == 1.0
        assert args.burn_threshold == 2.0

    def test_live_check_takes_a_capture(self):
        args = build_parser().parse_args(["live", "check", "x.capture"])
        assert args.live_command == "check"
        assert args.capture == Path("x.capture")
        assert args.json is False

    def test_policy_flag_repeats(self):
        args = build_parser().parse_args(
            ["top", "--policy", "a<1@0.9", "--policy", "b>2@0.5"]
        )
        assert args.policy == ["a<1@0.9", "b>2@0.5"]


class TestTopOnce:
    def test_renders_one_plain_frame_and_summary(self, capsys):
        rc = main(["top", "--once", *SMALL, "--duration", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro-bfs top" in out
        assert "\x1b[" not in out  # non-TTY: no ANSI control codes
        # the policed metric saw real traversals from both processes
        assert "*graph500.bfs" in out
        assert "live:" in out
        assert "0 alert(s)" in out

    def test_no_children_still_works(self, capsys):
        rc = main(
            ["top", "--once", *SMALL, "--children", "0", "--duration", "60"]
        )
        assert rc == 0
        assert "repro-bfs top" in capsys.readouterr().out


class TestLiveRecord:
    def test_writes_a_replayable_capture(self, tmp_path, capsys):
        out_path = tmp_path / "caps" / "run.capture"
        rc = main(["live", "record", *SMALL, "--out", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out_path.exists()
        assert f"wrote" in out and str(out_path) in out
        assert "0 alert(s)" in out

    def test_injected_slowdown_arms_the_flight_recorder(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "bad.capture"
        flight_dir = tmp_path / "flight"
        rc = main(
            [
                "live",
                "record",
                *SMALL,
                "--children",
                "1",
                "--child-delay",
                "0.2",
                *TIGHT,
                "--out",
                str(out_path),
                "--flight-dir",
                str(flight_dir),
            ]
        )
        out = capsys.readouterr().out
        # record itself succeeds; the verdict belongs to `live check`
        assert rc == 0
        assert "alert(s)" in out and "0 alert(s)" not in out
        assert "snapshot:" in out
        assert any(flight_dir.iterdir())

    def test_malformed_policy_rejected(self, tmp_path, capsys):
        rc = main(
            [
                "live",
                "record",
                "--policy",
                "not a spec",
                "--out",
                str(tmp_path / "x.capture"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-bfs: LiveError: ")
        assert "not a spec" in err


class TestLiveCheck:
    @pytest.fixture(scope="class")
    def captures(self, tmp_path_factory):
        """One clean and one violating capture, recorded once."""
        root = tmp_path_factory.mktemp("captures")
        clean = root / "clean.capture"
        bad = root / "bad.capture"
        assert main(["live", "record", *SMALL, "--out", str(clean)]) == 0
        assert (
            main(
                [
                    "live",
                    "record",
                    *SMALL,
                    "--child-delay",
                    "0.2",
                    *TIGHT,
                    "--out",
                    str(bad),
                ]
            )
            == 0
        )
        return {"clean": clean, "bad": bad}

    def test_clean_capture_passes(self, captures, capsys):
        rc = main(["live", "check", str(captures["clean"])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ok" in out
        assert "FAIL" not in out

    def test_violating_capture_fails(self, captures, capsys):
        rc = main(["live", "check", str(captures["bad"]), *TIGHT])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert "graph500.bfs" in out

    def test_json_verdict(self, captures, capsys):
        rc = main(["live", "check", str(captures["bad"]), *TIGHT, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["capture"] == str(captures["bad"])
        assert payload["frames"] > 0
        # spec() re-renders the threshold through repr()
        assert payload["policies"] == ["graph500.bfs<1e-06@0.9"]
        assert payload["alerts"]
        assert payload["alerts"][0]["metric"] == "graph500.bfs"

    def test_missing_capture_is_an_infra_error(self, tmp_path, capsys):
        rc = main(["live", "check", str(tmp_path / "absent.capture")])
        assert rc == 2
        assert "live check:" in capsys.readouterr().err

    def test_corrupt_capture_is_an_infra_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.capture"
        path.write_bytes(b"\x00\x00\x00\x04junk")
        rc = main(["live", "check", str(path)])
        assert rc == 2
        assert "live check:" in capsys.readouterr().err


class TestLiveDispatch:
    def test_missing_subcommand_prints_usage(self, capsys):
        rc = main(["live"])
        assert rc == 2
        assert "usage: repro-bfs live" in capsys.readouterr().err
