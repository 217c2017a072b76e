"""The seven canonical workloads of the end-to-end ledger.

Each workload is one *load shape* over the engine: seeded inputs, the session
(or service) it runs through, the public call that is one op, and the check
of that op against the dense oracle.  All of them are closed loops — a client
issues its next op when the previous one returned — and the only concurrency
is the workload's own (two client threads when served, two rank workers when
sharded; the box has two cores).

``--seed`` reaches the input generators only (water-box geometry, MD random
walk, request order).  The engine sees the generated ``(K, S, blocks)``.

Every loop exists once and takes an optional span recorder: without it the
loop only times ops (the end-to-end run), with it every op is also replayed
stage by stage (the traced run, see ``replay.py``).

The names are permanent: later PRs are compared on them.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
import traceback
from typing import Dict, List, Optional

import numpy as np

from calibration import HostSpeed
from oracle import Ceilings, Check, check_result, dense_oracle
from replay import REPLAY_STAGES, StagedReplay
from repro.api import EngineConfig, SubmatrixContext
from repro.api.observables import prepare_step
from repro.chem import SZV, HamiltonianModel, System, build_matrices, water_box
from repro.core.batch import evaluate_batched
from repro.serve import AdmissionPolicy, DensityService
from repro.signfn.registry import get_kernel

ELECTRONS_PER_MOLECULE = 8.0

#: The staged replay must reproduce the real call's AO density to this.
REPLAY_TOLERANCE = 1e-12

#: Op -1 holds the spans of the traced set-up (the replay session's cold
#: first op); timed ops count from 0.
SETUP_OP = -1

CACHE_COUNTERS = ("hits", "misses", "builds", "patches", "groups_rebuilt")
TRAJECTORY_COUNTERS = ("pattern_changes", "plans_built", "plans_patched", "plan_cache_hits")


# --------------------------------------------------------------------------- #
# stop rule and per-run log
# --------------------------------------------------------------------------- #
class Budget:
    """Closed-loop stop rule: a fixed number of ops, else a number of seconds."""

    def __init__(self, seconds: float, ops: Optional[int] = None):
        self.seconds = float(seconds)
        self.ops = ops
        self._deadline = math.inf

    def start(self) -> None:
        self._deadline = time.perf_counter() + self.seconds

    def more(self, done: int) -> bool:
        if self.ops is not None:
            return done < self.ops
        return time.perf_counter() < self._deadline

    def share(self, clients: int) -> "Budget":
        """The same rule for one of ``clients`` concurrent clients."""
        ops = None if self.ops is None else math.ceil(self.ops / clients)
        shared = Budget(self.seconds, ops)
        shared._deadline = self._deadline
        return shared


@dataclasses.dataclass
class RunLog:
    """What one timed window produced.

    ``samples`` are raw op seconds, ``factors`` the host slowdown measured
    around each op (``calibration.py``); the ledger reports their quotient.
    """

    samples: List[float] = dataclasses.field(default_factory=list)
    factors: List[float] = dataclasses.field(default_factory=list)
    checks: List[Check] = dataclasses.field(default_factory=list)
    raised_messages: List[str] = dataclasses.field(default_factory=list)
    attempted: int = 0
    #: length of the timed window when clients overlap (served); ``None`` for
    #: a single client, whose busy time is the sum of its op times
    window_s: Optional[float] = None

    def record(self, seconds: float, factor: float, check: Check) -> None:
        self.attempted += 1
        self.samples.append(seconds)
        self.factors.append(factor)
        self.checks.append(check)

    def raised(self, error: BaseException) -> None:
        """An op that raised (or was refused) is attempted and failed."""
        self.attempted += 1
        self.raised_messages.append(
            "".join(traceback.format_exception_only(type(error), error)).strip()
        )

    @property
    def failed(self) -> int:
        return len(self.raised_messages) + sum(1 for check in self.checks if not check.ok)

    @property
    def failures(self) -> List[str]:
        return self.raised_messages + [
            reason for check in self.checks for reason in check.reasons
        ]

    @property
    def calibrated(self) -> List[float]:
        return [s / f for s, f in zip(self.samples, self.factors)]

    @property
    def busy_s(self) -> float:
        """Calibrated seconds the ops were completed in (throughput's base)."""
        if self.window_s is None:
            return sum(self.calibrated)
        return self.window_s

    def errors(self, name: str) -> List[float]:
        values = [getattr(check, name) for check in self.checks]
        return [value for value in values if value is not None]


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


class LayerLedger(dict):
    """Per-layer metric values of one traced run (name -> number)."""

    def add_stages(self, rec, n_ops: int) -> None:
        """``<stage>_s``: median, over the ops where the stage ran, of its
        self time within the op (op -1 included: that is where the cold
        builds of the warm workloads happen).  ``unattributed_s``: real op
        minus the replay's stage self times, paired per op."""
        per_stage: Dict[str, List[float]] = {}
        gaps: List[float] = []
        for op in range(SETUP_OP, n_ops):
            own = rec.self_times(op)
            for name, seconds in own.items():
                per_stage.setdefault(name, []).append(seconds)
            if op >= 0:
                gaps.append(
                    own.get("op", 0.0)
                    - sum(own.get(stage, 0.0) for stage in REPLAY_STAGES)
                )
        for name, seconds in per_stage.items():
            self[name + "_s"] = _median(seconds)
        self["api.observables.unattributed_s"] = _median(gaps)

    def add_cache(self, before: Dict[str, int], after: Dict[str, int], n_ops: int) -> None:
        """Plan-cache traffic of the session under test, per op."""
        n_ops = max(1, n_ops)
        for key in ("hits", "misses", "builds", "patches"):
            self[f"core.plan.cache_{key}"] = (after[key] - before[key]) / n_ops


# --------------------------------------------------------------------------- #
# base classes
# --------------------------------------------------------------------------- #
class Workload:
    """One load shape.  Subclasses fill in the lifecycle methods."""

    name = ""
    why = ""
    #: ops of the fixed-count ledger run (``run.py`` without ``--workload``)
    ledger_ops = 0
    ceilings: Ceilings
    config: EngineConfig
    #: Whether seconds are divided by the host slowdown factor.  Only the
    #: single-threaded workloads are: the reference kernel sees the one CPU
    #: its thread sits on, and a workload that keeps both CPUs busy is steady
    #: without it (see ``calibration.py``).
    calibrated = True

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.model = HamiltonianModel()
        self.mu = self.model.homo_lumo_gap_center()
        self.speed = HostSpeed(enabled=self.calibrated)

    # set-up (timed as ``setup_s``, repeated): inputs, then session + warm-up
    def make_inputs(self) -> None:
        raise NotImplementedError

    def open(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # verification inputs (not part of set-up: the oracle is the harness's)
    def make_oracle(self) -> float:
        """Build the dense oracle(s); returns the seconds one dense solve took."""
        raise NotImplementedError

    def run(self, budget: Budget, rec=None) -> "tuple[RunLog, LayerLedger]":
        """The closed loop; with a recorder, every op is also replayed."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # traced-run helpers shared by every loop
    # ------------------------------------------------------------------ #
    def start_replay(self, rec, pairs, **replay_options) -> StagedReplay:
        """A replay session warmed like ``open()`` warms the real one (op -1)."""
        self.diffs: List[float] = []
        self.mu_iterations: List[int] = []
        replay = StagedReplay(self.config, **replay_options)
        rec.op = SETUP_OP
        first = len(rec.spans)
        self.speed.start()
        for pair in pairs:
            replay.run(rec, pair.K, pair.S, pair.blocks, self.mu)
        rec.calibrate(first, self.speed.factor())
        return replay

    def replay_op(self, rec, replay, pair, result, check: Check) -> None:
        """Replay the op that just returned ``result``; the replay's spans are
        calibrated by the host factor around *it*."""
        first = len(rec.spans)
        replayed = replay.run(rec, pair.K, pair.S, pair.blocks, result.mu)
        self.extra_spans(rec, replay, pair)
        rec.calibrate(first, self.speed.factor())
        diff = float(np.max(np.abs(replayed.density_ao - result.density_ao)))
        if not diff <= REPLAY_TOLERANCE:
            check.reasons.append(f"staged replay differs by {diff:.3e}")
        self.diffs.append(diff)
        self.mu_iterations.append(result.mu_iterations)

    def extra_spans(self, rec, replay: StagedReplay, pair) -> None:
        """Hook: spans of public functions that are not replay stages."""

    def finish_replay(self, rec, replay, ledger: LayerLedger, n_ops: int) -> None:
        ledger.add_stages(rec, n_ops)
        ledger.update(replay.facts)
        ledger["replay.max_abs_diff"] = max(self.diffs, default=0.0)
        ledger["api.observables.bisect_iterations"] = float(
            np.mean(self.mu_iterations or [0])
        )
        replay.close()


class CallWorkload(Workload):
    """Single client, one ``density`` call per op, one warm session."""

    nrep = (2, 2, 1)
    solver = "eigen"
    ranks: Optional[int] = None
    direct = None

    def make_inputs(self) -> None:
        system = water_box(self.nrep, seed=2020 + self.seed)
        self.n_atoms = system.n_atoms
        self.pair = build_matrices(system, model=self.model)

    def open(self) -> None:
        self.context = SubmatrixContext(self.config)
        self.call()  # cold first call: plan (and pipeline) build

    def close(self) -> None:
        self.context.close()

    def call(self):
        pair = self.pair
        return self.context.density(
            pair.K, pair.S, pair.blocks, mu=self.mu, solver=self.solver,
            ranks=self.ranks,
        )

    def cache_stats(self) -> Dict[str, int]:
        return dict(self.context.plan_cache.stats)

    def make_oracle(self) -> float:
        self.oracle = dense_oracle(self.pair.K, self.pair.S, mu=self.mu)
        return self.oracle.seconds

    def before_replay(self, replay: StagedReplay) -> None:
        """Hook: the cold workload resets the replay session here."""

    def result_facts(self, ledger: LayerLedger, result, wall_s: float) -> None:
        """Hook: layer facts read off the real result."""

    def run(self, budget: Budget, rec=None):
        log, ledger = RunLog(), LayerLedger()
        replay = None
        if rec is not None:
            replay = self.start_replay(
                rec, [self.pair], solver=self.solver, ranks=self.ranks
            )
        cache_before = self.cache_stats()
        result = None
        budget.start()
        self.speed.start()
        while budget.more(log.attempted):
            if rec is not None:
                rec.op = log.attempted
                first = len(rec.spans)
                span = rec.begin("op")
            start = time.perf_counter()
            try:
                result = self.call()
            except Exception as error:  # the loop must outlive a failing op
                if rec is not None:
                    rec.end(span)
                log.raised(error)
                continue
            seconds = time.perf_counter() - start
            if rec is not None:
                rec.end(span)
            factor = self.speed.factor()
            check = check_result(
                result, self.ceilings, self.n_atoms, oracle=self.oracle,
                direct=self.direct,
            )
            if rec is not None:
                rec.calibrate(first, factor)
                self.before_replay(replay)
                self.replay_op(rec, replay, self.pair, result, check)
            log.record(seconds, factor, check)
        if rec is not None:
            self.finish_replay(rec, replay, ledger, log.attempted)
            ledger.add_cache(cache_before, self.cache_stats(), log.attempted)
            if result is not None:
                self.result_facts(ledger, result, _median(log.calibrated))
        return log, ledger


# --------------------------------------------------------------------------- #
# the workloads
# --------------------------------------------------------------------------- #
class GcWater128(CallWorkload):
    name = "gc_water128"
    why = (
        "768 basis, eps 1e-2: 128 submatrices of dim ~140-190 (22% of n), so "
        "the batched eigh is the largest stage (~40%); plan a cache hit"
    )
    ledger_ops = 16
    config = EngineConfig(engine="batched", eps_filter=1e-2)
    ceilings = Ceilings(0.17, 8.6e-4, 2.6e-6)


class GcSparse128(CallWorkload):
    name = "gc_sparse128"
    why = (
        "768 basis like gc_water128 but a short-decay model at eps 1e-4: dims "
        "6-18, engine ~ms, so orthogonalise + dense back-transform dominate; "
        "a kernel speed-up must not move this"
    )
    ledger_ops = 32
    nrep = (4, 1, 1)
    config = EngineConfig(engine="batched", eps_filter=1e-4)
    # energy and electron errors sit at rounding level here: absolute floors
    ceilings = Ceilings(1.0e-6, 4.8e-6, 1.0e-9)

    def __init__(self, seed: int):
        super().__init__(seed)
        basis = dataclasses.replace(SZV, decay_length=0.20, overlap_decay_length=0.16)
        self.model = HamiltonianModel(basis=basis)
        self.mu = self.model.homo_lumo_gap_center()


class NsWater128(CallWorkload):
    name = "ns_water128"
    why = (
        "gc_water128 through the Newton-Schulz kernel: same layers, iterative "
        "matmul-bound sign path and no eigen cache; guards kernel pruning"
    )
    ledger_ops = 10
    config = GcWater128.config
    solver = "newton_schulz"
    ceilings = GcWater128.ceilings

    def extra_spans(self, rec, replay: StagedReplay, pair) -> None:
        # the public batched evaluator on the same plan and kernel, as one span
        kernel = get_kernel(self.solver)
        bound = kernel.bind()
        mu = self.mu
        prepared = prepare_step(pair.K, pair.S, pair.blocks, self.config.eps_filter)
        groups = [[c] for c in range(prepared.block_k.n_block_cols)]
        plan = replay.context.block_plan_for(
            prepared.coo, prepared.block_k.row_block_sizes, groups
        )
        packed = plan.pack(prepared.block_k)

        def occupations(stack):
            identity = np.eye(stack.shape[-1])
            return 0.5 * (identity - bound.batch_function(stack - mu * identity))

        with rec.span("core.batch.evaluate"):
            evaluate_batched(
                plan, packed, batch_function=occupations,
                pad_value=kernel.padding_value(mu), out=plan.new_output(),
            )


class ColdWater64(CallWorkload):
    name = "cold_water64"
    why = (
        "384 basis, eps 1e-3, a fresh session per call: plan build is over half "
        "of a cold call, what single-shot users pay; plan-build changes show here"
    )
    ledger_ops = 7
    nrep = (2, 1, 1)
    config = EngineConfig(engine="batched", eps_filter=1e-3)
    ceilings = Ceilings(1.5e-3, 8.2e-5, 1.0e-7)

    def open(self) -> None:
        self._stats = dict.fromkeys(CACHE_COUNTERS, 0)
        self.call()  # first-call lazies of the interpreter, not of a session

    def close(self) -> None:
        pass

    def call(self):
        pair = self.pair
        with SubmatrixContext(self.config) as context:
            result = context.density(pair.K, pair.S, pair.blocks, mu=self.mu)
            for key in CACHE_COUNTERS:
                self._stats[key] += context.plan_cache.stats[key]
        return result

    def cache_stats(self) -> Dict[str, int]:
        return dict(self._stats)

    def before_replay(self, replay: StagedReplay) -> None:
        replay.reset()


class ShardedWater128R2(CallWorkload):
    name = "sharded_water128_r2"
    why = (
        "gc_water128 inputs over 2 ranks on 2 threads: shard/runner/transfers; "
        "shard or exchange changes move this and not gc_water128"
    )
    ledger_ops = 16
    config = EngineConfig(
        engine="batched", eps_filter=1e-2, backend="thread", max_workers=2
    )
    ranks = 2
    calibrated = False
    ceilings = GcWater128.ceilings
    #: single-process ops timed in the traced run for ``speedup_vs_single``
    single_ops = 3
    single: Optional[SubmatrixContext] = None

    def make_oracle(self) -> float:
        seconds = super().make_oracle()
        pair = self.pair
        self.single = SubmatrixContext(GcWater128.config)
        self.direct = self.single.observables(
            pair.K, pair.S, pair.blocks, mu=self.mu
        )["density"]
        return seconds

    def close(self) -> None:
        super().close()
        if self.single is not None:
            self.single.close()
            self.single = None

    def result_facts(self, ledger: LayerLedger, result, wall_s: float) -> None:
        ledger["parallel.segment_fetch_bytes"] = result.segment_fetch_bytes or 0.0
        ledger["parallel.block_fetch_bytes"] = result.block_fetch_bytes or 0.0
        pair = self.pair
        samples = []  # raw seconds, like this workload's own (uncalibrated) ops
        for _ in range(self.single_ops):
            start = time.perf_counter()
            self.single.density(pair.K, pair.S, pair.blocks, mu=self.mu)
            samples.append(time.perf_counter() - start)
        ledger["core.runner.speedup_vs_single"] = _median(samples) / wall_s


class MdWater128(Workload):
    name = "md_water128"
    why = (
        "gc_water128 system on a seeded random walk (every 3rd step moves the "
        "pattern), canonical at 3000 K, warm-started mu: plan hit/patch mix "
        "plus real mu-bisection"
    )
    ledger_ops = 12
    # A walk only ever revisits its current and previous pattern.  Bounding
    # the plan cache at 2 also keeps peak RSS from depending on how many
    # pattern changes a seed's walk happens to make (a cached plan with its
    # stack index arrays is ~70 MB; the default bound is 64 plans).
    config = EngineConfig(
        engine="batched", eps_filter=1e-2, temperature=3000.0, plan_cache_size=2
    )
    # canonical: the electron count is held to 2x the bisection tolerance
    ceilings = Ceilings(0.17, 8.8e-4, 2.0e-8)
    #: Å per step and coordinate of the Gaussian random walk.  At one fixed
    #: sigma the number of pattern changes in 8 steps ranges from 0 to 7 with
    #: the seed, so the mix is made explicit: two value-only steps (``sigma``),
    #: then one ``kick`` that moves 6-23 of the 3600 blocks across the filter
    #: threshold on every seed tried (a patch, far below the rebuild fraction).
    sigma = 5.0e-5
    kick = 5.0e-3
    kick_every = 3
    #: steps per ``ctx.trajectory`` call; trajectories continue the same walk
    trajectory_steps = 6
    #: every n-th step is compared with a fresh dense solve (0.4 s each)
    oracle_every = 3
    mu_tolerance = 1e-8

    def make_inputs(self) -> None:
        self.base = water_box((2, 2, 1), seed=2020 + self.seed)
        self.n_atoms = self.base.n_atoms
        self.n_electrons = ELECTRONS_PER_MOLECULE * self.base.n_molecules
        self.rng = np.random.default_rng(7000 + self.seed)
        self.positions = self.base.positions.copy()
        self.walked = 0
        self.pair = build_matrices(self.base, model=self.model)

    def open(self) -> None:
        self.context = SubmatrixContext(self.config)
        pair = self.pair
        self.context.density(  # cold plan build on the starting geometry
            pair.K, pair.S, pair.blocks, n_electrons=self.n_electrons,
            mu_tolerance=self.mu_tolerance,
        )

    def close(self) -> None:
        self.context.close()

    def step_oracle(self, pair):
        return dense_oracle(
            pair.K, pair.S, n_electrons=self.n_electrons,
            temperature=self.config.temperature,
        )

    def make_oracle(self) -> float:
        return self.step_oracle(self.pair).seconds

    def next_geometry(self):
        """One random-walk step of every atom -> the step's ``(K, S)``."""
        self.walked += 1
        sigma = self.kick if self.walked % self.kick_every == 0 else self.sigma
        self.positions = self.positions + self.rng.normal(
            0.0, sigma, size=self.positions.shape
        )
        atoms = [
            dataclasses.replace(atom, position=position)
            for atom, position in zip(self.base.atoms, self.positions)
        ]
        return build_matrices(System(atoms, self.base.cell), model=self.model)

    def extra_spans(self, rec, replay: StagedReplay, pair) -> None:
        with rec.span("api.trajectory.prepare"):
            prepare_step(pair.K, pair.S, pair.blocks, self.config.eps_filter)

    def run(self, budget: Budget, rec=None):
        """Trajectories of ``trajectory_steps`` steps until the budget ends.

        A step is timed from the moment its ``(K, S)`` is handed to the
        driver to the moment ``on_step`` delivers its result, so generating
        the geometry is not part of the op.
        """
        log, ledger = RunLog(), LayerLedger()
        replay = None
        if rec is not None:
            replay = self.start_replay(rec, [self.pair], replan="auto")
        step = {"pair": None, "ready": 0.0, "span": None, "first": 0}
        totals = dict.fromkeys(TRAJECTORY_COUNTERS, 0)
        cache_before = dict(self.context.plan_cache.stats)

        def steps(index: int):
            if index >= self.trajectory_steps or not budget.more(log.attempted):
                return None
            step["pair"] = pair = self.next_geometry()
            self.speed.start()
            if rec is not None:
                rec.op = log.attempted
                step["first"] = len(rec.spans)
                step["span"] = rec.begin("op")
            step["ready"] = time.perf_counter()
            return pair.K, pair.S

        def on_step(index: int, result) -> None:
            seconds = time.perf_counter() - step["ready"]
            if rec is not None:
                rec.end(step["span"])
                step["span"] = None
            factor = self.speed.factor()
            pair = step["pair"]
            oracle = None
            if log.attempted % self.oracle_every == 0:
                oracle = self.step_oracle(pair)
            check = check_result(
                result, self.ceilings, self.n_atoms, oracle=oracle,
                n_target=self.n_electrons,
            )
            if rec is not None:
                rec.calibrate(step["first"], factor)
                if oracle is not None:
                    self.speed.start()  # the dense solve took a while
                self.replay_op(rec, replay, pair, result, check)
            log.record(seconds, factor, check)

        budget.start()
        while budget.more(log.attempted):
            done = log.attempted
            try:
                trajectory = self.context.trajectory(
                    steps, self.pair.blocks, n_electrons=self.n_electrons,
                    replan="auto", warm_start_mu=True,
                    mu_tolerance=self.mu_tolerance, on_step=on_step,
                )
            except Exception as error:
                if step["span"] is not None:
                    rec.end(step["span"])
                    step["span"] = None
                log.raised(error)
                continue
            for key in TRAJECTORY_COUNTERS:
                totals[key] += getattr(trajectory.stats, key)
            del trajectory  # its dense per-step results must not outlive it
            if log.attempted == done:
                break  # the budget ended before the first step
        if rec is not None:
            self.finish_replay(rec, replay, ledger, log.attempted)
            cache_after = self.context.plan_cache.stats
            ledger.add_cache(cache_before, cache_after, log.attempted)
            n_ops = max(1, log.attempted)
            for key in TRAJECTORY_COUNTERS:
                ledger[f"api.trajectory.{key}"] = totals[key] / n_ops
            # the driver's own per-step count of the same bisection steps
            ledger["api.trajectory.mu_iterations_total"] = ledger[
                "api.observables.bisect_iterations"
            ]
            patches = cache_after["patches"] - cache_before["patches"]
            ledger["core.plan.groups_rebuilt"] = (
                cache_after["groups_rebuilt"] - cache_before["groups_rebuilt"]
            ) / max(1, patches)
        return log, ledger


class ServedWater32(Workload):
    name = "served_water32"
    why = (
        "3 tenants' 192-basis systems through DensityService, 2 closed-loop "
        "clients, mixed ensembles/observables: admission, micro-batching, "
        "shared plan cache; engine work per request is small"
    )
    ledger_ops = 60
    config = EngineConfig(engine="batched", eps_filter=1e-5)
    # eps 1e-5 keeps (nearly) every block of a 32-molecule box: the errors
    # measure exactly 0 on most seeds and 1e-7 on some, so absolute ceilings
    ceilings = Ceilings(1.0e-6, 1.0e-6, 1.0e-8)
    calibrated = False
    tenants = 3
    clients = 2
    #: requests replayed and re-run directly after the traced window
    replay_requests = 9
    bundle = ("density", "pdos", "energy_weighted_density")

    def make_inputs(self) -> None:
        self.pairs = [
            build_matrices(
                water_box(1, seed=2020 + self.tenants * self.seed + tenant),
                model=self.model,
            )
            for tenant in range(self.tenants)
        ]
        self.n_atoms = 96  # of one 32-molecule box
        self.n_electrons = ELECTRONS_PER_MOLECULE * 32
        # the seed decides which system plays which slot of the request order
        self.order = np.random.default_rng(9000 + self.seed).permutation(self.tenants)

    def request(self, client: int, index: int):
        """Request ``index`` of ``client``: (tenant, ensemble, observables).

        In two of every four positions both clients ask for the same tenant
        (bytewise-identical inputs: the batcher may share the decomposition),
        in the other two for different ones — a fixed share, so that seeds
        differ in their matrices and not in how much work requests share.
        """
        offset = 0 if index % 4 >= 2 else client
        tenant = int(self.order[(index + offset) % self.tenants])
        ensemble = "mu" if index % 2 == 0 else "n_electrons"
        observables = self.bundle if index % 3 == 2 else ("density",)
        return tenant, ensemble, observables

    def _ensemble(self, ensemble: str):
        return {"mu": self.mu} if ensemble == "mu" else {"n_electrons": self.n_electrons}

    def open(self) -> None:
        self.service = DensityService(
            config=self.config,
            policy=AdmissionPolicy(max_in_flight=1024, max_in_flight_per_tenant=256),
            batching=True, max_batch=8, batch_wait=0.01,
        )
        for pair in self.pairs:  # one request per pattern: plans are built
            self.service.submit(pair.K, pair.S, pair.blocks, mu=self.mu).result()

    def close(self) -> None:
        self.service.close()

    def make_oracle(self) -> float:
        """Dense oracle per (tenant, ensemble), direct call per request kind."""
        self.oracles, self.directs = {}, {}
        seconds = []
        with SubmatrixContext(self.config) as direct:
            for tenant, pair in enumerate(self.pairs):
                for ensemble in ("mu", "n_electrons"):
                    kwargs = self._ensemble(ensemble)
                    oracle = dense_oracle(pair.K, pair.S, **kwargs)
                    seconds.append(oracle.seconds)
                    self.oracles[tenant, ensemble] = oracle
                    for observables in (("density",), self.bundle):
                        self.directs[tenant, ensemble, observables] = direct.observables(
                            pair.K, pair.S, pair.blocks, observables=observables,
                            **kwargs,
                        )["density"]
        return _median(seconds)

    def run(self, budget: Budget, rec=None):
        """Two closed-loop clients; latency is submit -> result.

        Traced, the window is the same (latencies and service counters come
        from it); afterwards, with the service idle, the first requests of
        the mix are run directly and replayed stage by stage — that gives
        ``serve.overhead_s`` and the stage split of one request.
        """
        log, ledger = RunLog(), LayerLedger()
        lock = threading.Lock()
        barrier = threading.Barrier(self.clients + 1)
        served: List[tuple] = []
        stats_before = self.service.stats()

        def client_loop(client: int, own: Budget) -> None:
            barrier.wait()
            index = 0
            while own.more(index):
                tenant, ensemble, observables = self.request(client, index)
                pair = self.pairs[tenant]
                start = time.perf_counter()
                try:
                    result = self.service.submit(
                        pair.K, pair.S, pair.blocks, tenant=f"tenant-{tenant}",
                        observables=observables, **self._ensemble(ensemble),
                    ).result()
                except Exception as error:
                    with lock:
                        log.raised(error)
                else:
                    seconds = time.perf_counter() - start
                    with lock:
                        served.append((client, index, seconds, result))
                index += 1

        budget.start()
        threads = [
            threading.Thread(target=client_loop, args=(client, budget.share(self.clients)))
            for client in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        log.window_s = time.perf_counter() - start
        # results are small (192 basis): check them after the window so the
        # clients' think time is zero
        for client, index, seconds, result in served:
            tenant, ensemble, observables = self.request(client, index)
            check = check_result(
                result, self.ceilings, self.n_atoms,
                oracle=self.oracles[tenant, ensemble],
                n_target=self.n_electrons if ensemble == "n_electrons" else None,
                direct=self.directs[tenant, ensemble, observables],
            )
            log.record(seconds, 1.0, check)
        if rec is not None:
            self._service_counters(ledger, stats_before, self.service.stats(), log.attempted)
            self._replay_served(rec, ledger, log, served)
        return log, ledger

    def _service_counters(self, ledger, before, after, n_ops: int) -> None:
        n_ops = max(1, n_ops)
        total = {
            key: after["metrics"]["total"][key] - before["metrics"]["total"][key]
            for key in ("batched", "coalesced", "shared", "rejected")
        }
        ledger["serve.mean_batch_size"] = (
            total["coalesced"] / total["batched"] if total["batched"] else 1.0
        )
        for key in ("coalesced", "shared", "rejected"):
            ledger[f"serve.{key}"] = total[key] / n_ops
        ledger.add_cache(before["plan_cache"], after["plan_cache"], n_ops)
        hits = ledger["core.plan.cache_hits"]
        lookups = hits + ledger["core.plan.cache_misses"]
        ledger["serve.plan_cache_hit_rate"] = hits / lookups if lookups else 0.0

    def _replay_served(self, rec, ledger, log: RunLog, served) -> None:
        replay = self.start_replay(rec, self.pairs)
        # the first requests of the mix, both clients interleaved
        sample = sorted(range(len(served)), key=lambda i: (served[i][1], served[i][0]))
        sample = sample[: self.replay_requests]
        directs: List[float] = []
        with SubmatrixContext(self.config) as direct:
            for pair in self.pairs:
                direct.density(pair.K, pair.S, pair.blocks, mu=self.mu)
            self.speed.start()
            for op, position in enumerate(sample):
                client, index, _, result = served[position]
                tenant, ensemble, observables = self.request(client, index)
                pair = self.pairs[tenant]
                rec.op = op
                first = len(rec.spans)
                with rec.span("op") as span:
                    direct.observables(
                        pair.K, pair.S, pair.blocks, observables=observables,
                        **self._ensemble(ensemble),
                    )
                rec.calibrate(first, self.speed.factor())
                directs.append(span.duration)
                self.replay_op(rec, replay, pair, result, log.checks[position])
        self.finish_replay(rec, replay, ledger, len(sample))
        ledger["serve.overhead_s"] = _median(log.calibrated) - _median(directs)


WORKLOADS = {
    cls.name: cls
    for cls in (
        GcWater128, GcSparse128, NsWater128, ColdWater64, MdWater128,
        ShardedWater128R2, ServedWater32,
    )
}
