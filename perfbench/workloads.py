"""The benchmark's workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
operation of fixed make-up through the program's public functions in
:meth:`op`, reduces the operation's output to what the checks need in
:meth:`summarize` (outside the timed interval), and after the last
operation compares every summary against values computed apart from the
program in :meth:`verify`.  ``verify`` returns one list of problems per
operation.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro import block_mapping, prepare, wrap_mapping
from repro.analysis.experiments import prepared_matrix
from repro.analysis.explain import explain_run
from repro.core import partition_prepared
from repro.core.pipeline import block_mappings, wrap_mappings
from repro.mpsim import (
    distributed_block_cholesky,
    distributed_cholesky,
    distributed_cholesky_fanin,
)
from repro.numeric import sparse_cholesky
from repro.perf.sweep import sweep
from repro.sparse import generators, registry, spd_from_graph
from repro.sparse import harwell_boeing

import oracles

PAPER_PROCS = (16, 64, 256, 1024)
#: A quarter of GRIDA100K (aniso_grid 12500 x 8, reach 2).
GRID_SHAPE = (3125, 8)
GRID_REACH = 2
CELL_PROCS = 64
EXECUTE_MATRIX = "CANN1072"
EXECUTE_PROCS = 64


def _digest(array) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def _grid(seed: int):
    """The anisotropic grid with its vertices relabelled by the seed."""
    graph = generators.aniso_grid(*GRID_SHAPE, reach=GRID_REACH)
    return graph.permute(np.random.default_rng(seed).permutation(graph.n))


def _clear_memos() -> None:
    """The program memoizes loaded and prepared matrices per process; each
    set-up builds them afresh so that repeated set-ups cost the same."""
    registry.load.cache_clear()
    harwell_boeing.load.cache_clear()
    prepared_matrix.cache_clear()


def _same_as_first(label: str, summaries, key: str, i: int) -> list[str]:
    first = next(s for s in summaries if s is not None)
    if summaries[i][key] != first[key]:
        return [f"{label}: differs from the first operation's"]
    return []


class CellGrid:
    name = "cell-grid"

    def setup(self, seed: int) -> dict:
        return {"graph": _grid(seed)}

    def op(self, state):
        prep = prepare(state["graph"], name=self.name)
        return prep, block_mapping(prep, CELL_PROCS), wrap_mapping(prep, CELL_PROCS)

    def summarize(self, state, out) -> dict:
        prep, block, wrap = out
        pattern = prep.pattern
        if "pattern" not in state:
            state["pattern"] = (np.array(pattern.indptr), np.array(pattern.rowidx))
            state["block_owner"] = np.array(block.assignment.owner_of_element)
        return {
            "pattern": _digest(pattern.indptr) + _digest(pattern.rowidx),
            "block_owner": _digest(block.assignment.owner_of_element),
            "wrap_owner": _digest(np.asarray(wrap.assignment.owner_of_element, dtype=np.int64)),
            "traffic": (block.traffic.per_processor.copy(), wrap.traffic.per_processor.copy()),
            "work": (block.balance.per_processor.copy(), wrap.balance.per_processor.copy()),
        }

    def verify(self, state, summaries) -> list[list[str]]:
        indptr, rowidx = state["pattern"]
        reads = oracles.Reads(indptr, rowidx)
        w_tot = reads.total_work()
        owner_b = state["block_owner"]
        owner_w = oracles.wrap_owner(indptr, CELL_PROCS)
        want_traffic = (reads.traffic(owner_b, CELL_PROCS), reads.traffic(owner_w, CELL_PROCS))
        closed = oracles.wrap_traffic(indptr, rowidx, CELL_PROCS)
        want_work = (reads.work(owner_b, CELL_PROCS), reads.work(owner_w, CELL_PROCS))
        out = []
        for i, s in enumerate(summaries):
            if s is None:
                out.append([])
                continue
            p = _same_as_first("factor pattern", summaries, "pattern", i)
            p += _same_as_first("block assignment", summaries, "block_owner", i)
            if s["wrap_owner"] != _digest(owner_w):
                p.append("wrap owners: not column mod P")
            p += oracles.compare("wrap traffic (closed form)", s["traffic"][1], closed)
            for scheme, got_t, want_t, got_w, want_w in zip(
                ("block", "wrap"), s["traffic"], want_traffic, s["work"], want_work
            ):
                p += oracles.compare(f"{scheme} traffic", got_t, want_t)
                p += oracles.compare(f"{scheme} work", got_w, want_w)
                p += oracles.work_problems(f"{scheme} work", got_w, w_tot)
            out.append(p)
        return out


class SweepGrid:
    name = "sweep-grid"

    def setup(self, seed: int) -> dict:
        prep = prepare(_grid(seed), name=self.name)
        prep.updates
        prep.read_index
        return {"prep": prep}

    def op(self, state):
        prep = state["prep"]
        blocks = block_mappings(partition_prepared(prep), PAPER_PROCS)
        return blocks, wrap_mappings(prep, PAPER_PROCS)

    def summarize(self, state, out) -> dict:
        blocks, wraps = out
        if "block_owners" not in state:
            state["block_owners"] = [np.array(r.assignment.owner_of_element) for r in blocks]
        return {
            "block_owner": "".join(_digest(r.assignment.owner_of_element) for r in blocks),
            "block": [(r.traffic.per_processor.copy(), r.balance.per_processor.copy()) for r in blocks],
            "wrap": [(r.traffic.per_processor.copy(), r.balance.per_processor.copy()) for r in wraps],
        }

    def verify(self, state, summaries) -> list[list[str]]:
        pattern = state["prep"].pattern
        reads = oracles.Reads(pattern.indptr, pattern.rowidx)
        w_tot = reads.total_work()
        want_block = [
            (reads.traffic(owner, p), reads.work(owner, p))
            for owner, p in zip(state["block_owners"], PAPER_PROCS)
        ]
        want_wrap = [
            (oracles.wrap_traffic(pattern.indptr, pattern.rowidx, p),
             reads.work(oracles.wrap_owner(pattern.indptr, p), p))
            for p in PAPER_PROCS
        ]
        out = []
        for i, s in enumerate(summaries):
            if s is None:
                out.append([])
                continue
            p = _same_as_first("block assignments", summaries, "block_owner", i)
            for scheme, got, want in (("block", s["block"], want_block), ("wrap", s["wrap"], want_wrap)):
                for nprocs, (got_t, got_w), (want_t, want_w) in zip(PAPER_PROCS, got, want):
                    label = f"{scheme} P={nprocs}"
                    p += oracles.compare(f"{label} traffic", got_t, want_t)
                    p += oracles.compare(f"{label} work", got_w, want_w)
                    p += oracles.work_problems(label, got_w, w_tot)
            out.append(p)
        return out


class SweepPaper:
    name = "sweep-paper"
    schemes = ("block", "block-adaptive", "wrap")
    grains = (4, 25)

    def setup(self, seed: int) -> dict:
        # The paper grid is fixed, so the seed changes nothing here.
        matrices = harwell_boeing.names()
        _clear_memos()
        for name in matrices:
            registry.load(name)
        return {"matrices": matrices}

    def op(self, state):
        return sweep(
            state["matrices"], schemes=self.schemes, procs=PAPER_PROCS,
            grains=self.grains, jobs=1, cache_dir=None,
        )

    def summarize(self, state, out):
        return [
            (r.matrix, r.scheme, r.nprocs, r.grain, r.traffic_total, r.traffic_mean,
             r.work_max, r.imbalance, r.units)
            for r in out
        ]

    def _expected(self, state) -> dict:
        """Per matrix: W_tot, closed-form wrap totals, and block traffic
        totals and unit counts for the program's block assignments."""
        want = {}
        for name in state["matrices"]:
            prep = prepare(registry.load(name), name=name)
            pattern = prep.pattern
            reads = oracles.Reads(pattern.indptr, pattern.rowidx)
            cells = {}
            for p in PAPER_PROCS:
                cells[("wrap", p, None)] = (
                    int(oracles.wrap_traffic(pattern.indptr, pattern.rowidx, p).sum()), None)
            for grain in self.grains:
                for r in block_mappings(partition_prepared(prep, grain=grain), PAPER_PROCS):
                    total = int(reads.traffic(r.assignment.owner_of_element, r.nprocs).sum())
                    cells[("block", r.nprocs, grain)] = (total, r.partition.num_units)
            want[name] = (reads.total_work(), cells)
        return want

    def verify(self, state, summaries) -> list[list[str]]:
        want = self._expected(state)
        n_cells = len(state["matrices"]) * len(PAPER_PROCS) * (1 + 2 * len(self.grains))
        out = []
        for s in summaries:
            if s is None:
                out.append([])
                continue
            p = [] if len(s) == n_cells else [f"{len(s)} records, expected {n_cells}"]
            for matrix, scheme, nprocs, grain, total, mean, work_max, lam, units in s:
                label = f"{matrix} {scheme} P={nprocs} grain={grain}"
                w_tot, cells = want[matrix]
                # lambda = max/mean - 1 with mean = W_tot / P.
                if lam < 0 or not np.isclose(work_max / (1.0 + lam) * nprocs, w_tot, rtol=1e-9):
                    p.append(f"{label}: work_max and lambda disagree with W_tot {w_tot}")
                if not np.isclose(mean * nprocs, total, rtol=1e-12):
                    p.append(f"{label}: traffic mean disagrees with its total")
                expected = cells.get((scheme, nprocs, grain))
                if expected is not None:
                    want_total, want_units = expected
                    if total != want_total:
                        p.append(f"{label}: traffic {total} != independent {want_total}")
                    if want_units is not None and units != want_units:
                        p.append(f"{label}: {units} units != {want_units}")
            out.append(p)
        return out


class ExecutePaper:
    name = "execute-paper"

    def __init__(self):
        # mpsim ranks are threads; never more of them than CPUs.
        self.ranks = min(2, os.cpu_count() or 1)

    def setup(self, seed: int) -> dict:
        _clear_memos()
        prep = prepared_matrix(EXECUTE_MATRIX)
        prep.updates
        a = spd_from_graph(registry.load(EXECUTE_MATRIX), seed=seed).permute(prep.perm)
        return {
            "prep": prep,
            "a": a,
            "columns": np.arange(a.n, dtype=np.int64) % self.ranks,
            "block": block_mapping(prep, self.ranks),
        }

    def op(self, state):
        explained = []
        for scheme in ("block", "wrap"):
            e = explain_run(EXECUTE_MATRIX, scheme, EXECUTE_PROCS)
            run = e.run
            explained.append(
                (e, run.critical_path(), run.proc_times(), run.imbalance(), run.comm_matrix()))
        prep, a, cols, blk = state["prep"], state["a"], state["columns"], state["block"]
        factors = [sparse_cholesky(a, prep.symbolic)]
        factors.append(distributed_cholesky(a, prep.pattern, cols, self.ranks)[0])
        factors.append(distributed_cholesky_fanin(a, prep.pattern, cols, self.ranks)[0])
        factors.append(distributed_block_cholesky(
            a, blk.partition, blk.assignment, prep.updates, blk.dependencies)[0])
        return explained, factors

    def summarize(self, state, out) -> dict:
        explained, factors = out
        sims = []
        for e, path, times, _imbalance, comm in explained:
            run = e.run
            busy = np.bincount(run.proc, weights=run.finish - run.start, minlength=run.nprocs)
            sims.append({
                "ledger": run.total_message_bytes(),
                "traffic_total": e.traffic_total,
                "fetched": comm.sum(axis=1),
                "makespan": run.makespan,
                "last_finish": float(run.finish.max()),
                "busy": busy,
                "times": (times.busy, times.wait, times.idle),
                "path": path.length,
            })
        return {"sims": sims, "factors": [f.values.copy() for f in factors]}

    def verify(self, state, summaries) -> list[list[str]]:
        prep = state["prep"]
        pattern = prep.pattern
        reads = oracles.Reads(pattern.indptr, pattern.rowidx)
        owner_b = block_mapping(prep, EXECUTE_PROCS).assignment.owner_of_element
        want_fetched = (
            reads.traffic(owner_b, EXECUTE_PROCS),
            oracles.wrap_traffic(pattern.indptr, pattern.rowidx, EXECUTE_PROCS),
        )
        dense = np.linalg.cholesky(state["a"].to_dense())
        out = []
        for s in summaries:
            if s is None:
                out.append([])
                continue
            p = []
            for scheme, sim, fetched in zip(("block", "wrap"), s["sims"], want_fetched):
                p += oracles.compare(f"{scheme} ledger per processor", sim["fetched"], fetched)
                if not sim["ledger"] == sim["traffic_total"] == int(fetched.sum()):
                    p.append(f"{scheme}: ledger bytes {sim['ledger']}, traffic "
                             f"{sim['traffic_total']}, independent {int(fetched.sum())}")
                span = sim["makespan"]
                if not np.isclose(sim["last_finish"], span, rtol=1e-12):
                    p.append(f"{scheme}: makespan is not the last finish time")
                busy, wait, idle = sim["times"]
                if not np.allclose(busy, sim["busy"], rtol=1e-9, atol=1e-9 * span):
                    p.append(f"{scheme}: busy time differs from the unit records")
                if not np.allclose(busy + wait + idle, span, rtol=1e-9, atol=1e-9 * span):
                    p.append(f"{scheme}: busy + wait + idle != makespan")
                if not np.isclose(sim["path"], span, rtol=1e-9):
                    p.append(f"{scheme}: critical path {sim['path']} != makespan {span}")
            for label, values in zip(
                ("sequential", "fan-out", "fan-in", "block"), s["factors"]
            ):
                p += oracles.factor_problems(f"{label} factor", pattern, values, dense)
            out.append(p)
        return out


WORKLOADS = {w.name: w for w in (CellGrid, SweepGrid, SweepPaper, ExecutePaper)}
