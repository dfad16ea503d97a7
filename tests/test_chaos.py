"""Chaos soak suite tests: schedule determinism, the closed-world
outcome contract, repro lines, and untyped-failure detection."""

import dataclasses

import pytest

from repro.verify.chaos import (
    TYPED_FAILURES,
    ChaosSchedule,
    chaos_schedules,
    run_chaos_case,
)
from repro.verify.runner import run_suite


class TestSchedules:
    def test_deterministic(self):
        a = chaos_schedules(12, base_seed=7)
        b = chaos_schedules(12, base_seed=7)
        assert a == b

    def test_isolated_rerun_matches_soak_member(self):
        # Schedule i depends on base_seed + i alone, so the published
        # repro line (--base-seed N --schedules 1) rebuilds it exactly.
        soak = chaos_schedules(10, base_seed=0)
        lone = chaos_schedules(1, base_seed=6)[0]
        assert soak[6] == lone

    def test_include_process_marks_every_third(self):
        scheds = chaos_schedules(9, base_seed=0, include_process=True)
        for i, s in enumerate(scheds):
            if i % 3 == 2:
                assert s.execution == "process" and s.n_workers == 2
            else:
                assert s.execution == "serial" and s.n_workers is None

    def test_seeds_keep_their_chaos(self):
        # Schedules drew a backend choice before their faults; the draw
        # stays, so every seed keeps the chaos it had (counts taken when
        # the draw still picked between two in-process backends). Serial
        # HOOI schedules still draw faults but carry none: 11 of the 36
        # schedules that drew faults (17 of the 55 faults) are serial HOOI.
        scheds = chaos_schedules(50, base_seed=0)
        assert sum(1 for s in scheds if s.faults) == 25
        assert sum(len(s.faults) for s in scheds) == 38
        assert sum(1 for s in scheds if s.target == "hooi") == 15
        assert sum(1 for s in scheds if s.deadline_seconds is not None) == 9
        assert sum(1 for s in scheds if s.cancel_after is not None) == 8

    @pytest.mark.parametrize("include_process", [False, True])
    def test_serial_hooi_carries_no_faults(self, include_process):
        # Serial HOOI has no chunk site: faults drawn for it never fire.
        scheds = chaos_schedules(50, base_seed=0, include_process=include_process)
        assert not [
            s.seed
            for s in scheds
            if s.faults and s.target == "hooi" and s.execution == "serial"
        ]
        assert any(s.faults and s.target == "hooi" for s in scheds) == include_process

    def test_spec_line_names_the_chaos(self):
        scheds = chaos_schedules(40, base_seed=0)
        assert all(f"chaos seed={s.seed}" in s.spec for s in scheds)
        assert any("deadline=" in s.spec for s in scheds)
        assert any("cancel@" in s.spec for s in scheds)
        assert any("faults=" in s.spec for s in scheds)

    def test_variety(self):
        scheds = chaos_schedules(50, base_seed=0)
        assert {s.target for s in scheds} == {"s3ttmc", "hooi"}
        assert any(s.faults for s in scheds)
        assert any(not s.faults for s in scheds)


class TestRunChaosCase:
    def test_small_soak_all_ok(self):
        for sched in chaos_schedules(8, base_seed=0):
            for result in run_chaos_case(sched):
                assert result.ok, f"{result.spec} {result.check}: {result.detail}"

    def test_repro_line(self):
        sched = chaos_schedules(1, base_seed=41)[0]
        results = run_chaos_case(sched)
        assert len(results) == 2
        assert {r.check for r in results} == {"chaos:outcome", "chaos:hygiene"}
        for r in results:
            assert r.repro == (
                "python -m repro.verify --config chaos "
                "--base-seed 41 --schedules 1"
            )

    def test_untyped_failure_detected(self, monkeypatch):
        # A raw RuntimeError out of the kernel layer is exactly the
        # kind of escape the closed-world contract exists to catch.
        def boom(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr("repro.parallel.executor.parallel_s3ttmc", boom)
        sched = dataclasses.replace(
            chaos_schedules(1, base_seed=0)[0],
            target="s3ttmc",
            faults=(),
            deadline_seconds=None,
            cancel_after=None,
        )
        outcome = next(
            r for r in run_chaos_case(sched) if r.check == "chaos:outcome"
        )
        assert not outcome.ok
        assert "UNTYPED failure" in outcome.detail
        assert "kernel exploded" in outcome.detail

    def test_typed_failure_taxonomy_is_closed(self):
        from repro.runtime.budget import MemoryLimitError
        from repro.runtime.faults import BackendUnhealthyError
        from repro.runtime.health import HealthError

        for exc_type in TYPED_FAILURES:
            assert issubclass(
                exc_type, (HealthError, BackendUnhealthyError, MemoryLimitError)
            )


class TestRunnerIntegration:
    def test_run_suite_chaos_config(self):
        seen = []

        def on_case(sched, results):
            seen.append((sched, results))

        report = run_suite("chaos", schedules=3, base_seed=0, on_case=on_case)
        assert len(report.results) == 6  # outcome + hygiene per schedule
        assert report.ok
        assert len(seen) == 3
        assert all(isinstance(s, ChaosSchedule) for s, _ in seen)

    def test_run_suite_chaos_check_filter(self):
        report = run_suite("chaos", schedules=2, base_seed=0, check="chaos:hygiene")
        assert len(report.results) == 2
        assert all(r.check == "chaos:hygiene" for r in report.results)

    def test_cli_smoke(self, capsys):
        from repro.verify.__main__ import main

        rc = main(["--config", "chaos", "--schedules", "2", "-q"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "passed" in out
