"""Tests for the parallel campaign runner (experiments/campaign.py)."""

import json
import os
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import campaign, harness
from repro.experiments.campaign import (
    CampaignCell,
    DEFAULT_KERNELS,
    format_campaign,
    plan_campaign,
    run_campaign,
)
from repro.experiments.machine import PAPER_TILE_SIZE
from repro.runtime.backends import BACKEND_ENV
from tests.conftest import available_sim_backends

TILE = 8  # small tiles keep the simulated graphs cheap
GOLDEN_ROWS = Path(__file__).parent / "golden" / "campaign_rows.json"


class TestPlanner:
    def test_family_kernel_pairing(self):
        cells = plan_campaign(["g2dbc", "gcrm"], Ps=[5], ms=[6])
        kernels = {(c.family, c.kernel) for c in cells}
        assert kernels == {("g2dbc", "lu"), ("gcrm", "cholesky")}

    def test_infeasible_sbc_dropped(self):
        # SBC exists at P=10 (triangle a=4) but not at P=7
        cells = plan_campaign(["sbc"], Ps=[7, 10], ms=[6])
        assert {c.P for c in cells} == {10}

    def test_networks_and_sizes_expand(self):
        cells = plan_campaign(["g2dbc"], Ps=[5], ms=[6, 8],
                              networks=["nic", "contention"])
        assert len(cells) == 4
        assert {(c.m, c.network) for c in cells} == {
            (6, "nic"), (6, "contention"), (8, "nic"), (8, "contention")}

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown family"):
            plan_campaign(["hilbert"], Ps=[5], ms=[6])

    def test_unknown_network_raises(self):
        with pytest.raises(ValueError, match="unknown network"):
            plan_campaign(["g2dbc"], Ps=[5], ms=[6], networks=["carrier-pigeon"])

    def test_every_family_has_default_kernels(self):
        from repro.patterns.library import PATTERN_FAMILIES
        assert set(DEFAULT_KERNELS) == set(PATTERN_FAMILIES)


class TestRunner:
    def test_rows_align_with_cells(self):
        cells = plan_campaign(["g2dbc"], Ps=[5], ms=[6],
                              networks=["nic", "contention"])
        rows = run_campaign(cells, jobs=1, tile_size=TILE)
        assert len(rows) == len(cells)
        for cell, row in zip(cells, rows):
            assert (row.family, row.kernel, row.P, row.m, row.network) == (
                cell.family, cell.kernel, cell.P, cell.m, cell.network)

    def test_predictions_agree(self):
        cells = plan_campaign(["g2dbc", "gcrm"], Ps=[5], ms=[8])
        for row in run_campaign(cells, jobs=1, tile_size=TILE):
            assert row.predicted_messages == row.simulated_messages
            assert row.makespan_s >= row.predicted_makespan_s - 1e-9
            assert row.makespan_ratio >= 1.0 - 1e-9

    def test_memo_reused_and_results_identical(self):
        cells = plan_campaign(["g2dbc"], Ps=[5], ms=[6])
        memo = {}
        rows1 = run_campaign(cells, jobs=1, tile_size=TILE, memo=memo)
        n_cached = len(memo)
        rows2 = run_campaign(cells, jobs=1, tile_size=TILE, memo=memo)
        assert len(memo) == n_cached  # nothing recomputed
        assert [r.as_dict() for r in rows1] == [r.as_dict() for r in rows2]
        # memoized rows are shared objects, not re-simulated copies
        assert all(a is b for a, b in zip(rows1, rows2))

    def test_duplicate_cells_simulated_once(self):
        cell = CampaignCell("g2dbc", "lu", 5, 6)
        memo = {}
        rows = run_campaign([cell, cell], jobs=1, tile_size=TILE, memo=memo)
        assert len(rows) == 2 and rows[0] is rows[1]
        assert len(memo) == 1

    def test_format_contains_all_rows(self):
        cells = plan_campaign(["g2dbc"], Ps=[5], ms=[6],
                              networks=["nic", "contention"])
        rows = run_campaign(cells, jobs=1, tile_size=TILE)
        text = format_campaign(rows)
        assert text.count("g2dbc") == len(rows)
        assert "msg pred" in text and "msg sim" in text


class TestFaultsAxis:
    FAULT = "fail:1@1e-5,loss:0.05,seed:3"

    def test_faults_expand_cells(self):
        cells = plan_campaign(["g2dbc"], Ps=[5], ms=[6],
                              faults=["", self.FAULT])
        assert len(cells) == 2
        assert {c.faults for c in cells} == {"", self.FAULT}

    def test_bad_fault_spec_rejected_at_plan_time(self):
        with pytest.raises(ValueError):
            plan_campaign(["g2dbc"], Ps=[5], ms=[6], faults=["explode:1"])

    def test_signature_distinguishes_faults(self):
        a = CampaignCell("g2dbc", "lu", 5, 6)
        b = CampaignCell("g2dbc", "lu", 5, 6, faults=self.FAULT)
        assert a.signature() != b.signature()

    def test_faulted_rows_populated(self):
        cells = plan_campaign(["g2dbc"], Ps=[5], ms=[6],
                              faults=["", self.FAULT])
        rows = run_campaign(cells, jobs=1, tile_size=TILE)
        clean = next(r for r in rows if not r.faults)
        faulty = next(r for r in rows if r.faults)
        assert clean.makespan_inflation == 1.0
        assert clean.failed_nodes == 0
        assert faulty.failed_nodes == 1
        assert faulty.faultfree_makespan_s == pytest.approx(clean.makespan_s)
        assert faulty.makespan_inflation >= 1.0 - 1e-9
        assert faulty.makespan_s >= faulty.faultfree_makespan_s - 1e-9
        assert faulty.retries == faulty.msgs_lost

    def test_faulted_campaign_jobs_independent(self):
        cells = plan_campaign(["g2dbc", "gcrm"], Ps=[5], ms=[6],
                              faults=["", self.FAULT])
        serial = run_campaign(cells, jobs=1, tile_size=TILE)
        parallel = run_campaign(cells, jobs=2, tile_size=TILE)
        assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]

    def test_format_shows_fault_columns_only_when_present(self):
        cells = plan_campaign(["g2dbc"], Ps=[5], ms=[6],
                              faults=["", self.FAULT])
        rows = run_campaign(cells, jobs=1, tile_size=TILE)
        text = format_campaign(rows)
        assert "infl" in text and "lost" in text
        clean = [r for r in rows if not r.faults]
        assert "infl" not in format_campaign(clean)


class TestResizeAxis:
    RESIZE = "7@2e-5"

    def test_resizes_expand_cells(self):
        cells = plan_campaign(["g2dbc"], Ps=[5], ms=[6],
                              resizes=["", self.RESIZE])
        assert len(cells) == 2
        assert {c.resize for c in cells} == {"", self.RESIZE}

    def test_bad_resize_spec_rejected_at_plan_time(self):
        with pytest.raises(ValueError):
            plan_campaign(["g2dbc"], Ps=[5], ms=[6], resizes=["7at0.1"])

    def test_faults_resize_combinations_dropped(self):
        cells = plan_campaign(["g2dbc"], Ps=[5], ms=[6],
                              faults=["", "fail:1@1e-5,seed:3"],
                              resizes=["", self.RESIZE])
        # the (fault, resize) grid point is mutually exclusive
        assert len(cells) == 3
        assert not any(c.faults and c.resize for c in cells)

    def test_cell_rejects_faults_with_resize(self):
        """A hand-built cell with both specs is refused where it is made;
        the evaluator would run the fault plan and drop the resize."""
        with pytest.raises(ValueError, match="'fail:1@0.001'.*'7@0.001'"):
            CampaignCell("g2dbc", "lu", 5, 8, faults="fail:1@0.001",
                         resize="7@0.001")

    def test_signature_distinguishes_resize(self):
        a = CampaignCell("g2dbc", "lu", 5, 6)
        b = CampaignCell("g2dbc", "lu", 5, 6, resize=self.RESIZE)
        assert a.signature() != b.signature()

    def test_resized_rows_populated(self):
        cells = plan_campaign(["g2dbc"], Ps=[5], ms=[6],
                              resizes=["", self.RESIZE])
        rows = run_campaign(cells, jobs=1, tile_size=TILE)
        plain = next(r for r in rows if not r.resize)
        resized = next(r for r in rows if r.resize)
        assert plain.tiles_moved == 0 and plain.migration_s == 0.0
        assert resized.tiles_moved > 0
        assert resized.migration_s > 0.0
        assert resized.tiles_saved >= 0
        # base columns still describe the resized run itself
        assert resized.makespan_s > 0

    def test_resized_campaign_jobs_independent(self):
        cells = plan_campaign(["g2dbc"], Ps=[5], ms=[6],
                              resizes=["", self.RESIZE])
        serial = run_campaign(cells, jobs=1, tile_size=TILE)
        parallel = run_campaign(cells, jobs=2, tile_size=TILE)
        assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]

    def test_format_shows_resize_columns_only_when_present(self):
        cells = plan_campaign(["g2dbc"], Ps=[5], ms=[6],
                              resizes=["", self.RESIZE])
        rows = run_campaign(cells, jobs=1, tile_size=TILE)
        text = format_campaign(rows)
        assert "moved" in text and "brkeven" in text
        plain = [r for r in rows if not r.resize]
        assert "brkeven" not in format_campaign(plain)


class TestJobsIndependence:
    """Property: campaign rows do not depend on ``jobs``."""

    @given(st.sampled_from([("g2dbc", 5), ("g2dbc", 7), ("gcrm", 5)]),
           st.sampled_from([5, 6, 7]),
           st.sampled_from(["nic", "contention"]),
           st.sampled_from([2, 3]))
    @example(("g2dbc", 5), 6, "contention", 3)
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_jobs_1_vs_pool(self, fam_P, m, network, jobs):
        """Two graphs in eight baseline groups: two workers take chunks
        of 4 + 4 groups, three take 3 + 3 + 2, so each graph's groups
        span two chunks and each of those chunks builds the graph."""
        family, P = fam_P
        cells = plan_campaign([family], Ps=[P], ms=[m, m + 1],
                              networks=[network], topologies=[1, 2],
                              schedulers=["priority", "work_stealing"])
        serial = run_campaign(cells, jobs=1, tile_size=TILE)
        parallel = run_campaign(cells, jobs=jobs, tile_size=TILE)
        assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]


class TestBaselineGroups:
    """Cells that share a graph, a network, a policy and a topology share
    one build, one bound set and one plain run; no row may see that."""

    def test_rows_do_not_depend_on_the_grid(self):
        cells = plan_campaign(
            ["g2dbc", "gcrm"], Ps=[5], ms=[6],
            networks=["contention", "hierarchical"], topologies=[1, 2],
            faults=["", TestFaultsAxis.FAULT],
            resizes=["", TestResizeAxis.RESIZE],
            schedulers=["priority", "work_stealing"])
        assert len(cells) == 48
        together = run_campaign(cells, jobs=1, tile_size=TILE)
        alone = [run_campaign([c], jobs=1, tile_size=TILE)[0] for c in cells]
        assert [r.as_dict() for r in together] == \
            [r.as_dict() for r in alone]


class TestRowPin:
    """Every field of every row of a 48-cell grid, floats as
    ``float.hex``: both networks, faults, resize and work stealing,
    under every available event loop (the plain and resize cells'
    runs take the compiled loop when it builds, so the Python loop is
    pinned here too).

    Regenerate (only after an *intentional* behavior change) with::

        REGEN_GOLDEN=1 python -m pytest tests/experiments/test_campaign.py -k RowPin
    """

    @pytest.fixture(scope="class")
    def runs(self):
        """Per event loop: the grid's rows, and how often the campaign
        called each graph builder (through the harness's shared
        ``build_factorization``) and ``simulate``."""
        cells = plan_campaign(
            ["g2dbc", "gcrm"], [5, 7], [8], networks=["nic", "contention"],
            faults=["", "fail:1@0.01,loss:0.02,seed:3"],
            resizes=["", "9@0.01"], schedulers=["priority", "work_stealing"])
        out = {}
        for backend in available_sim_backends():
            calls = Counter()

            def counted(module, name):
                fn = getattr(module, name)

                def call(*args, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)
                return call

            with pytest.MonkeyPatch.context() as mp:
                mp.setenv(BACKEND_ENV, backend)
                for module, name in ((harness, "build_lu_graph"),
                                     (harness, "build_cholesky_graph"),
                                     (campaign, "simulate")):
                    mp.setattr(module, name, counted(module, name))
                rows = run_campaign(cells, jobs=1, tile_size=PAPER_TILE_SIZE)
            out[backend] = rows, calls
        return out

    def test_one_build_and_plain_run_per_group(self, runs):
        """4 graphs in 16 baseline groups of (plain, fault, resize)
        cells: one build per graph, and per group one plain run, one
        fault run and one resize run."""
        for backend, (_, calls) in runs.items():
            assert calls["build_lu_graph"] + \
                calls["build_cholesky_graph"] == 4, backend
            assert calls["simulate"] == 48, backend

    def test_rows_match_golden(self, runs):
        for backend, (rows, _) in runs.items():
            actual = [{k: v.hex() if isinstance(v, float) else v
                       for k, v in r.as_dict().items()} for r in rows]
            if os.environ.get("REGEN_GOLDEN"):
                GOLDEN_ROWS.parent.mkdir(exist_ok=True)
                GOLDEN_ROWS.write_text("[\n" + ",\n".join(
                    json.dumps(r, sort_keys=True) for r in actual) + "\n]\n")
                pytest.skip(f"regenerated {GOLDEN_ROWS.name}")
            expected = json.loads(GOLDEN_ROWS.read_text())
            assert len(actual) == len(expected) == 48
            for got, want in zip(actual, expected):
                assert got == want, backend

    def test_faultfree_makespan_is_the_plain_run(self, runs):
        """A faulted or resized row compares with its plain twin's
        makespan, however the evaluator obtained it."""
        for backend, (rows, _) in runs.items():
            plain = {(r.family, r.P, r.network, r.scheduler): r.makespan_s
                     for r in rows if not r.faults and not r.resize}
            varied = [r for r in rows if r.faults or r.resize]
            assert len(plain) == 16 and len(varied) == 32
            for r in varied:
                assert r.faultfree_makespan_s == \
                    plain[(r.family, r.P, r.network, r.scheduler)], backend
            assert all(r.tiles_moved > 0 for r in varied if r.resize)


@pytest.mark.slow
def test_campaign_smoke_paper_scale():
    """A reduced Fig. 6/11-style campaign: both kernels, both network
    models, paper tile size — the CI smoke job for the campaign path."""
    cells = plan_campaign(["g2dbc", "gcrm"], Ps=[5, 7, 9], ms=[8, 12],
                          networks=["nic", "contention"])
    rows = run_campaign(cells, jobs=2, tile_size=500)
    assert len(rows) == len(cells) == 24
    by_key = {(r.family, r.P, r.m, r.network): r for r in rows}
    for r in rows:
        assert r.predicted_messages == r.simulated_messages
        assert r.makespan_s >= r.predicted_makespan_s - 1e-9
        if r.network == "contention":
            nic = by_key[(r.family, r.P, r.m, "nic")]
            assert r.makespan_s >= nic.makespan_s - 1e-15
    print()
    print(format_campaign(rows))
