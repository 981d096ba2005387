"""Tests for sweep spec construction, validation and compilation."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.config.presets import paper_system
from repro.sim.experiments import ExperimentScale
from repro.sim.registry import builtin_specs
from repro.sweep import (
    Axis,
    SpecError,
    SweepSpec,
    WorkloadSpec,
    build_config,
    build_workloads,
    describe_point,
    expand_points,
    point_key,
)

from tests.conftest import job_key

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: sha256 prefixes of each shipped spec's ``to_json()`` text (built-ins at
#: the default scale, then ``examples/*.json``): a codec change must not
#: move a single byte of a spec file or of a run directory's spec.json.
SPEC_JSON_DIGESTS = {
    "dsarp_additivity": "11e56cccff9c4fb9",
    "figure12_workload_sweep": "a4db6db212fb8010",
    "figure13_all_mechanisms": "b9d405a9a67462ba",
    "figure14_energy_per_access": "6bdcf37a1cdb91b0",
    "figure15_memory_intensity": "9017ca4fa489d24a",
    "figure16_fgr_comparison": "0a83af595d191f05",
    "figure6_refab_performance_loss": "b5ea985432763e60",
    "figure7_refab_vs_refpb_loss": "c72a0e1013824d7a",
    "table3_core_count": "b9b1ff4a5ba195c2",
    "table4_tfaw_sensitivity": "6e4e69a72b9c80bb",
    "table5_subarray_sensitivity": "bc8616facc2e8935",
    "table6_refresh_interval": "a0e45c9020d310b9",
    "scheduler_sweep.json": "d12cc426d846a71e",
    "sweep_spec.json": "976f838616d84ebe",
}


def shipped_specs() -> dict[str, SweepSpec]:
    specs = dict(builtin_specs(ExperimentScale()))
    for path in sorted(EXAMPLES.glob("*.json")):
        specs[path.name] = SweepSpec.load(path)
    return specs


def two_axis_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        name="test",
        axes=(Axis("tfaw", (10, 20)), Axis("subarrays_per_bank", (4, 8))),
        mechanisms=("refpb", "sarppb"),
        baseline="refpb",
        base={"density_gb": 32},
        workloads=WorkloadSpec(kind="intensive", count=1, num_cores=4),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestAxis:
    def test_unknown_axis_rejected(self):
        with pytest.raises(SpecError, match="Axis.name: expects one of"):
            Axis("voltage", (1, 2))

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="no values"):
            Axis("tfaw", ())


class TestSpecValidation:
    def test_duplicate_axes_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            two_axis_spec(axes=(Axis("tfaw", (10,)), Axis("tfaw", (20,))))

    def test_no_axes_rejected(self):
        with pytest.raises(SpecError, match="at least one axis"):
            two_axis_spec(axes=())

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(SpecError, match=r"SweepSpec.mechanisms\[1\]: expects"):
            two_axis_spec(mechanisms=("refpb", "quantum"))

    def test_baseline_must_be_swept(self):
        with pytest.raises(SpecError, match="baseline"):
            two_axis_spec(baseline="refab")

    def test_unknown_expansion_rejected(self):
        with pytest.raises(SpecError, match="SweepSpec.expansion"):
            two_axis_spec(expansion="latin_hypercube")

    def test_zip_requires_equal_lengths(self):
        with pytest.raises(SpecError, match="equal-length"):
            two_axis_spec(
                expansion="zip",
                axes=(Axis("tfaw", (10, 20, 30)), Axis("subarrays_per_bank", (4, 8))),
            )

    def test_unknown_base_knob_rejected(self):
        with pytest.raises(SpecError, match=r"SweepSpec.base\['voltage'\]: expects"):
            two_axis_spec(base={"voltage": 1.2})

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(SpecError, match="WorkloadSpec.kind"):
            WorkloadSpec(kind="spec2017")

    def test_invalid_categories_rejected_at_load_time(self):
        with pytest.raises(SpecError, match=r"WorkloadSpec.categories\[0\]: expects"):
            WorkloadSpec(kind="category_sweep", categories=(30,))
        with pytest.raises(SpecError, match="at least one category"):
            WorkloadSpec(kind="category_sweep", categories=())

    def test_non_positive_num_cores_rejected(self):
        with pytest.raises(SpecError, match="num_cores must be positive"):
            WorkloadSpec(num_cores=0)


class TestExpansion:
    def test_grid_is_cross_product_last_axis_fastest(self):
        points = expand_points(two_axis_spec())
        assert points == [
            {"tfaw": 10, "subarrays_per_bank": 4},
            {"tfaw": 10, "subarrays_per_bank": 8},
            {"tfaw": 20, "subarrays_per_bank": 4},
            {"tfaw": 20, "subarrays_per_bank": 8},
        ]

    def test_zip_pairs_positionwise(self):
        spec = two_axis_spec(expansion="zip")
        assert expand_points(spec) == [
            {"tfaw": 10, "subarrays_per_bank": 4},
            {"tfaw": 20, "subarrays_per_bank": 8},
        ]
        assert spec.num_points() == 2

    def test_num_points_matches_expansion(self):
        spec = two_axis_spec()
        assert spec.num_points() == len(expand_points(spec)) == 4

    def test_point_key_is_order_insensitive(self):
        assert point_key({"a_x": 1, "b": 2}) == point_key({"b": 2, "a_x": 1})

    def test_describe_point(self):
        assert describe_point({"tfaw": 10, "subarrays_per_bank": 4}) == (
            "subarrays_per_bank=4, tfaw=10"
        )


class TestSerialization:
    def test_json_round_trip(self):
        spec = two_axis_spec()
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_save_load_round_trip(self, tmp_path):
        spec = two_axis_spec()
        path = spec.save(tmp_path / "spec.json")
        assert SweepSpec.load(path) == spec

    def test_from_json_rejects_garbage(self):
        with pytest.raises(SpecError, match="invalid sweep spec JSON"):
            SweepSpec.from_json("{not json")
        with pytest.raises(SpecError, match="JSON object"):
            SweepSpec.from_json("[1, 2]")
        with pytest.raises(SpecError, match="axes"):
            SweepSpec.from_json(json.dumps({"name": "x"}))

    @pytest.mark.parametrize("name", sorted(SPEC_JSON_DIGESTS))
    def test_shipped_specs_round_trip(self, name):
        spec = shipped_specs()[name]
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_shipped_spec_json_is_pinned(self):
        digests = {
            name: hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest()[:16]
            for name, spec in shipped_specs().items()
        }
        assert digests == SPEC_JSON_DIGESTS

    def test_missing_baseline_is_the_first_mechanism(self):
        data = two_axis_spec(mechanisms=("sarppb", "refpb")).to_dict()
        del data["baseline"]
        assert SweepSpec.from_dict(data).baseline == "sarppb"

    def test_empty_mechanisms_rejected_cleanly(self):
        data = two_axis_spec().to_dict()
        data["mechanisms"] = []
        with pytest.raises(SpecError, match="at least one mechanism"):
            SweepSpec.from_json(json.dumps(data))

    def test_unknown_spec_keys_rejected(self):
        data = two_axis_spec().to_dict()
        data["mechanism"] = ["refab", "dsarp"]  # typo'd key must not be ignored
        with pytest.raises(SpecError, match="unknown SweepSpec keys: mechanism"):
            SweepSpec.from_json(json.dumps(data))

    def test_unknown_workload_keys_rejected(self):
        data = two_axis_spec().to_dict()
        data["workloads"]["cores"] = 4
        with pytest.raises(SpecError, match="unknown WorkloadSpec keys: cores"):
            SweepSpec.from_json(json.dumps(data))

    def test_non_dict_workloads_rejected(self):
        data = two_axis_spec().to_dict()
        data["workloads"] = "intensive"
        with pytest.raises(SpecError, match="SweepSpec.workloads: WorkloadSpec expects an object"):
            SweepSpec.from_json(json.dumps(data))

    def test_malformed_axis_entry_names_the_missing_key(self):
        data = two_axis_spec().to_dict()
        data["axes"] = [{"values": [10]}]
        with pytest.raises(SpecError, match="Axis is missing required keys: name"):
            SweepSpec.from_json(json.dumps(data))

    def test_with_axis_values(self):
        spec = two_axis_spec().with_axis_values("tfaw", (5,))
        assert dict(zip(spec.axis_names(), (a.values for a in spec.axes)))["tfaw"] == (5,)


class TestBuildConfig:
    def test_preset_knobs_applied(self):
        spec = two_axis_spec(
            axes=(Axis("density_gb", (8, 16)), Axis("num_cores", (2, 4))),
            base={"retention_ms": 64.0},
        )
        config = build_config(spec, {"density_gb": 16, "num_cores": 2})
        assert config.dram.density_gb == 16
        assert config.cpu.num_cores == 2
        assert config.dram.retention_ms == 64.0

    def test_tfaw_axis_derives_trrd(self):
        config = build_config(two_axis_spec(), {"tfaw": 20, "subarrays_per_bank": 8})
        assert config.dram.timings.tFAW == 20
        assert config.dram.timings.tRRD == 4
        # The paper's pairing floors at 1 for the tightest tFAW values.
        config = build_config(two_axis_spec(), {"tfaw": 4, "subarrays_per_bank": 8})
        assert config.dram.timings.tRRD == 1

    def test_explicit_trrd_overrides_derivation(self):
        spec = two_axis_spec(base={"density_gb": 32, "trrd": 7})
        config = build_config(spec, {"tfaw": 20, "subarrays_per_bank": 8})
        assert config.dram.timings.tRRD == 7

    def test_matches_paper_system_for_preset_only_points(self):
        spec = two_axis_spec(axes=(Axis("subarrays_per_bank", (4,)),))
        config = build_config(spec, {"subarrays_per_bank": 4})
        assert config == paper_system(density_gb=32, subarrays_per_bank=4)


class TestBuildWorkloads:
    def test_intensive_kind_counts_and_cores(self):
        spec = two_axis_spec()
        workloads = build_workloads(spec, {"tfaw": 10, "subarrays_per_bank": 4})
        assert len(workloads) == 1
        assert workloads[0].num_cores == 4

    def test_num_cores_axis_overrides_workload_spec(self):
        spec = two_axis_spec(axes=(Axis("num_cores", (2, 8)),))
        workloads = build_workloads(spec, {"num_cores": 2})
        assert all(w.num_cores == 2 for w in workloads)

    def test_workload_seed_axis_changes_mixes(self):
        spec = two_axis_spec(axes=(Axis("workload_seed", (0, 1)),))
        first = build_workloads(spec, {"workload_seed": 0})
        second = build_workloads(spec, {"workload_seed": 1})
        assert [job_key(workload=w) for w in first] != [
            job_key(workload=w) for w in second
        ]

    def test_base_workload_seed_is_honored(self):
        # A fixed workload_seed in `base` must build the same workloads as
        # the equivalent single-value axis, not silently use the default.
        base_spec = two_axis_spec(base={"density_gb": 32, "workload_seed": 7})
        axis_spec = two_axis_spec(
            axes=(Axis("workload_seed", (7,)), Axis("tfaw", (10,)))
        )
        from_base = build_workloads(base_spec, {"tfaw": 10, "subarrays_per_bank": 4})
        from_axis = build_workloads(axis_spec, {"workload_seed": 7, "tfaw": 10})
        assert [job_key(workload=w) for w in from_base] == [
            job_key(workload=w) for w in from_axis
        ]

    def test_category_sweep_kind(self):
        spec = two_axis_spec(
            workloads=WorkloadSpec(
                kind="category_sweep", count=1, num_cores=4, categories=(0, 100)
            )
        )
        workloads = build_workloads(spec, {"tfaw": 10, "subarrays_per_bank": 4})
        assert [w.category for w in workloads] == [0, 100]
