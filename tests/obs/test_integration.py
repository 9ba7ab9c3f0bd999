"""Integration: the simulation stack feeding the observability layer."""

import dataclasses

import pytest

from repro.config import SimConfig
from repro.experiments.runner import Runner
from repro.obs import (
    EVENT_INTERVAL_DECISION,
    EVENT_INTERVAL_ENERGY,
    EVENT_MSHR_STALL,
    EVENT_REFRESH_BURST,
    EVENT_SIM_END,
    EVENT_SIM_START,
    MetricsRegistry,
    Profiler,
    Tracer,
)
from repro.timing.system import System
from repro.workloads.multiprog import get_mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace

from tests.timing.test_batch_kernel_equivalence import (
    FAULT_PLAN,
    _fields_with_faults,
)

CFG = SimConfig.scaled(instructions_per_core=600_000)


def _run(technique="esteem", tracer=None, metrics=None, profiler=None):
    trace = generate_trace(get_profile("h264ref"), CFG.instructions_per_core, seed=0)
    system = System(
        CFG, [trace], technique, tracer=tracer, metrics=metrics, profiler=profiler
    )
    return system.run()


class TestTracing:
    def test_one_decision_event_per_timeline_entry(self):
        tracer = Tracer()
        result = _run(tracer=tracer)
        decisions = tracer.events(EVENT_INTERVAL_DECISION)
        assert len(decisions) == len(result.timeline)
        for event, record in zip(decisions, result.timeline):
            assert event.data["interval"] == record.interval_index
            assert event.cycle == record.cycle
            assert tuple(event.data["n_active_way"]) == record.n_active_way
            assert event.data["active_fraction"] == pytest.approx(
                record.active_fraction
            )

    def test_run_is_bracketed_by_start_and_end(self):
        tracer = Tracer()
        result = _run(tracer=tracer)
        (start,) = tracer.events(EVENT_SIM_START)
        (end,) = tracer.events(EVENT_SIM_END)
        assert start.data["technique"] == "esteem"
        assert end.data["instructions"] == result.total_instructions
        assert end.data["refreshes"] == result.refreshes

    def test_refresh_bursts_sum_to_total_refreshes(self):
        tracer = Tracer()
        result = _run(technique="baseline", tracer=tracer)
        bursts = tracer.events(EVENT_REFRESH_BURST)
        assert bursts, "baseline must refresh"
        assert sum(e.data["lines"] for e in bursts) == result.refreshes

    def test_interval_energy_events_match_interval_count(self):
        tracer = Tracer()
        result = _run(tracer=tracer)
        energy = tracer.events(EVENT_INTERVAL_ENERGY)
        assert len(energy) == result.intervals

    def test_tracing_does_not_perturb_results(self):
        plain = _run()
        traced = _run(tracer=Tracer(), metrics=MetricsRegistry())
        assert traced.total_cycles == plain.total_cycles
        assert traced.l2_hits == plain.l2_hits
        assert traced.l2_misses == plain.l2_misses
        assert traced.refreshes == plain.refreshes
        assert traced.energy.total_j == pytest.approx(plain.energy.total_j)

    def test_disabled_tracer_normalised_to_none(self):
        from repro.obs import NULL_TRACER

        trace = generate_trace(get_profile("gamess"), 300_000, seed=0)
        system = System(CFG, [trace], "esteem", tracer=NULL_TRACER)
        assert system.tracer is None
        assert system.engine.tracer is None


class TestFastLoopObservability:
    """A traced run takes the same fast loop as an untraced one, and that
    loop must feed observability identically to the reference loop --
    same events, same order, same payloads, same results."""

    def _traced(self, reference_loop):
        tracer = Tracer()
        metrics = MetricsRegistry()
        trace = generate_trace(
            get_profile("h264ref"), CFG.instructions_per_core, seed=0
        )
        System(
            CFG,
            [trace],
            "esteem",
            tracer=tracer,
            metrics=metrics,
            reference_loop=reference_loop,
        ).run()
        return tracer, metrics

    def test_event_stream_identical_to_reference_loop(self):
        fast_tracer, _ = self._traced(reference_loop=False)
        ref_tracer, _ = self._traced(reference_loop=True)
        fast_events = [(e.type, e.cycle, e.data) for e in fast_tracer.events()]
        ref_events = [(e.type, e.cycle, e.data) for e in ref_tracer.events()]
        assert fast_events == ref_events

    def test_metrics_identical_to_reference_loop(self):
        # The kernel.* counters attribute records to the kernel that
        # serviced them (the reference loop counts all as scalar), so the
        # comparison is modulo that split -- as in the batch-kernel suite.
        _, fast_metrics = self._traced(reference_loop=False)
        _, ref_metrics = self._traced(reference_loop=True)
        fast, ref = fast_metrics.snapshot(), ref_metrics.snapshot()
        kernel_keys = {"kernel.batch_records", "kernel.scalar_records"}
        assert {k: v for k, v in fast.items() if k not in kernel_keys} == {
            k: v for k, v in ref.items() if k not in kernel_keys
        }
        assert sum(fast[k]["value"] for k in kernel_keys) == sum(
            ref[k]["value"] for k in kernel_keys
        )

    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
    @pytest.mark.parametrize("technique", ["baseline", "rpv", "esteem"])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_traced_matrix_identical_to_reference_loop(
        self, cores, technique, faults
    ):
        fault_plan = FAULT_PLAN if faults else None
        _, fast, fast_tracer = _traced_matrix_run(
            cores, technique, fault_plan, reference_loop=False
        )
        _, ref, ref_tracer = _traced_matrix_run(
            cores, technique, fault_plan, reference_loop=True
        )
        fast_events = [(e.type, e.cycle, e.data) for e in fast_tracer.events()]
        ref_events = [(e.type, e.cycle, e.data) for e in ref_tracer.events()]
        assert fast_tracer.dropped == ref_tracer.dropped == 0
        assert fast_events == ref_events
        assert fast_tracer.tally()[EVENT_MSHR_STALL] > 0
        assert _fields_with_faults(fast) == _fields_with_faults(ref)
        if faults:
            assert fast.faults_injected > 0

    def test_traced_single_core_run_uses_the_batch_kernel(self):
        system, _, tracer = _traced_matrix_run(
            1, "baseline", None, reference_loop=False
        )
        assert system.kernel_batch_records > 0
        assert tracer.tally()[EVENT_MSHR_STALL] > 0


#: Budget for the traced fast-vs-reference matrix (per core).
MATRIX_INSTRUCTIONS = 300_000


def _traced_matrix_run(cores, technique, fault_plan, reference_loop):
    """One traced run of a streaming workload (libquantum, or the
    libquantum+povray mix on two cores): ``(system, result, tracer)``.

    The memory channel is narrowed to 1 GB/s so demand misses queue and
    ``mshr.stall`` fires on every loop path (at the paper's 10 GB/s a
    scaled single-core run never queues).
    """
    config = SimConfig.scaled(
        num_cores=cores, instructions_per_core=MATRIX_INSTRUCTIONS
    )
    config = dataclasses.replace(
        config,
        memory=dataclasses.replace(config.memory, bandwidth_bytes_per_sec=1e9),
    )
    profiles = (
        [get_profile("libquantum")] if cores == 1 else get_mix("LqPo").profiles
    )
    traces = [
        generate_trace(p, MATRIX_INSTRUCTIONS, seed=7 + i)
        for i, p in enumerate(profiles)
    ]
    tracer = Tracer()
    system = System(
        config,
        traces,
        technique,
        tracer=tracer,
        reference_loop=reference_loop,
        fault_plan=fault_plan,
    )
    return system, system.run(), tracer


class TestMetrics:
    def test_run_counters_recorded(self):
        reg = MetricsRegistry()
        result = _run(metrics=reg)
        snap = reg.snapshot()
        assert snap["sim.runs"]["value"] == 1
        assert snap["l2.misses"]["value"] == result.l2_misses
        assert snap["refresh.lines"]["value"] == result.refreshes
        assert snap["energy.intervals"]["value"] == result.intervals
        assert snap["energy.total_j"]["value"] == pytest.approx(
            result.energy.total_j
        )


class TestProfiling:
    def test_runner_records_spans(self):
        prof = Profiler()
        runner = Runner(
            SimConfig.scaled(instructions_per_core=300_000),
            seed=3,
            profiler=prof,
        )
        runner.compare("gamess", "esteem")
        names = [s.name for s in prof.spans]
        assert any(n.startswith("trace.generate:gamess") for n in names)
        assert "system.run:gamess:esteem" in names
        assert "system.run:gamess:baseline" in names
