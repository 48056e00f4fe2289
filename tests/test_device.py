import re

import pytest

from bqaoa import data_path
from bqaoa.device import (
    MAX_DURATION_NS,
    DeviceModel,
    GateFlavor,
    QubitClass,
    device_from_dict,
    load_device,
    qubit_class,
    summarize,
)
from bqaoa.errors import InfeasibleError, ValidationError


def minimal_doc(num_qubits=2, edges=None):
    qubit = {
        "t1_us": 150.0,
        "t2_us": 140.0,
        "sx_error": 0.0002,
        "readout_error": 0.01,
        "prob_meas0_prep1": 0.012,
        "prob_meas1_prep0": 0.008,
        "readout_length_ns": 846.22,
    }
    if edges is None:
        edges = [
            {
                "control": 0,
                "target": 1,
                "flavor": "ecr",
                "cx_error": 0.008,
                "cx_duration_ns": 320.0,
            }
        ]
    return {
        "name": "mini",
        "num_qubits": num_qubits,
        "qubits": [dict(qubit) for _ in range(num_qubits)],
        "edges": edges,
    }


def test_load_fragment_reference_edges(fragment):
    direct = fragment.edge_between(1, 4)
    assert direct.flavor is GateFlavor.DIRECT_CX
    assert direct.cx_duration_ns == 245.3
    ecr = fragment.edge_between(1, 0)
    assert ecr.flavor is GateFlavor.ECR_CX
    assert ecr.cx_duration_ns == 320.0
    assert ecr.control == 1 and ecr.target == 0


def test_load_rejects_out_of_range_error():
    doc = minimal_doc()
    doc["edges"][0]["cx_error"] = 1.3
    with pytest.raises(ValidationError, match="cx_error"):
        device_from_dict(doc)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("t1_us", -1.0, "t1_us"),
        ("t2_us", 0.0, "t2_us"),
        ("sx_error", 1.5, "sx_error"),
        ("readout_error", 0.2, "readout_error"),  # inconsistent with preps
    ],
)
def test_load_rejects_bad_qubit_fields(field, value, message):
    doc = minimal_doc()
    doc["qubits"][0][field] = value
    with pytest.raises(ValidationError, match=message):
        device_from_dict(doc)


#: each duration field as errors name it: the object holding it, and its key
DURATION_FIELDS = {
    "qubits[0].readout_length_ns": (lambda doc: doc["qubits"][0], "readout_length_ns"),
    "edges[0].cx_duration_ns": (lambda doc: doc["edges"][0], "cx_duration_ns"),
    "edges[0].composite_durations_ns[zz]": (
        lambda doc: doc["edges"][0].setdefault("composite_durations_ns", {}), "zz"),
    "single_qubit_durations_ns[sx]": (
        lambda doc: doc.setdefault("single_qubit_durations_ns", {}), "sx"),
    "cr_scale_model.intercept_ns": (
        lambda doc: doc.setdefault("cr_scale_model", {}), "intercept_ns"),
    "cr_scale_model.slope_ns_per_pi": (
        lambda doc: doc.setdefault("cr_scale_model", {}), "slope_ns_per_pi"),
}


@pytest.mark.parametrize("field", DURATION_FIELDS)
def test_load_bounds_every_duration(field):
    # a schedule total of such durations must stay finite
    holder, key = DURATION_FIELDS[field]
    for value in (MAX_DURATION_NS, 1.0001 * MAX_DURATION_NS, 1e308):
        doc = minimal_doc()
        holder(doc)[key] = value
        if value <= MAX_DURATION_NS:
            device_from_dict(doc)
            continue
        with pytest.raises(ValidationError, match=re.escape(field + ":")):
            device_from_dict(doc)


def test_load_rejects_duplicate_and_dangling_edges():
    doc = minimal_doc()
    doc["edges"].append(
        {
            "control": 1,
            "target": 0,
            "flavor": "direct",
            "cx_error": 0.006,
            "cx_duration_ns": 245.3,
        }
    )
    with pytest.raises(ValidationError, match="duplicate edge"):
        device_from_dict(doc)
    doc = minimal_doc()
    doc["edges"][0]["target"] = 7
    with pytest.raises(ValidationError, match="out of range"):
        device_from_dict(doc)


def test_malformed_file_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="malformed device JSON"):
        load_device(path)
    with pytest.raises(ValidationError, match="cannot read device file"):
        load_device(tmp_path / "missing.json")


def test_qubit_class_fragment(fragment):
    assert qubit_class(fragment, 0) is QubitClass.Q_ECR
    assert qubit_class(fragment, 1) is QubitClass.Q_BIPOTENT
    assert qubit_class(fragment, 4) is QubitClass.Q_DIRECT
    assert qubit_class(fragment, 2) is QubitClass.ISOLATED
    with pytest.raises(IndexError):
        qubit_class(fragment, 5)


def test_qubit_class_partitions(ehningen):
    counts = {cls: 0 for cls in QubitClass}
    for q in range(ehningen.num_qubits):
        counts[qubit_class(ehningen, q)] += 1
    assert sum(counts.values()) == ehningen.num_qubits


def test_summarize_flavor_means():
    dev = load_device(data_path("ehningen_table1.json"))
    summary = summarize(dev)
    ecr = summary["by_flavor"]["ecr"]
    direct = summary["by_flavor"]["direct"]
    assert ecr["mean_cx_error"] == pytest.approx(0.0083)
    assert ecr["mean_cx_duration_ns"] == pytest.approx(382.22)
    assert direct["mean_cx_error"] == pytest.approx(0.0079)
    assert direct["mean_cx_duration_ns"] == pytest.approx(256.89)
    assert summary["cx_error_reduction_pct"] == pytest.approx(4.82, abs=0.01)
    assert summary["cx_duration_reduction_pct"] == pytest.approx(32.79, abs=0.01)


def test_summarize_single_edge_equals_edge_values():
    dev = device_from_dict(minimal_doc())
    summary = summarize(dev)
    row = summary["by_flavor"]["ecr"]
    assert row["mean_cx_error"] == 0.008
    assert row["mean_cx_duration_ns"] == 320.0
    assert "direct" not in summary["by_flavor"]


def test_summarize_matches_hand_means():
    doc = minimal_doc(num_qubits=4, edges=[])
    t1s = [100.0, 140.0, 180.0, 220.0]
    for entry, t1 in zip(doc["qubits"], t1s):
        entry["t1_us"] = t1
    doc["edges"] = [
        {"control": 0, "target": 1, "flavor": "ecr", "cx_error": 0.004,
         "cx_duration_ns": 300.0},
        {"control": 1, "target": 2, "flavor": "ecr", "cx_error": 0.010,
         "cx_duration_ns": 400.0},
        {"control": 2, "target": 3, "flavor": "direct", "cx_error": 0.006,
         "cx_duration_ns": 250.0},
    ]
    summary = summarize(device_from_dict(doc))
    assert summary["by_flavor"]["ecr"]["mean_cx_error"] == pytest.approx(0.007)
    assert summary["by_flavor"]["ecr"]["mean_cx_duration_ns"] == pytest.approx(350.0)
    # qubit 2 touches both flavors; 0 and 1 are ecr-only, 3 direct-only
    assert summary["by_class"]["bipotent"]["count"] == 1
    assert summary["by_class"]["bipotent"]["mean_t1_us"] == pytest.approx(180.0)
    assert summary["by_class"]["ecr"]["mean_t1_us"] == pytest.approx(120.0)
    assert summary["by_class"]["direct"]["mean_t1_us"] == pytest.approx(220.0)


def test_summarize_permutation_invariant(ehningen):
    shuffled = DeviceModel(
        name=ehningen.name,
        num_qubits=ehningen.num_qubits,
        qubits=ehningen.qubits,
        edges=tuple(reversed(ehningen.edges)),
        single_qubit_durations_ns=ehningen.single_qubit_durations_ns,
        cr_scale=ehningen.cr_scale,
    )
    assert summarize(shuffled)["by_flavor"] == summarize(ehningen)["by_flavor"]


def test_summarize_empty_device():
    doc = minimal_doc()
    doc["num_qubits"] = 0
    doc["qubits"] = []
    doc["edges"] = []
    with pytest.raises(ValidationError):
        device_from_dict(doc)
    dev = device_from_dict(minimal_doc())
    with pytest.raises(InfeasibleError, match="device has no edges"):
        DeviceModel("empty", 1, (), (), dev.single_qubit_durations_ns).mean_cx_error()


def test_ehningen_flavor_sources(ehningen):
    sources = {e.flavor_source for e in ehningen.edges}
    assert sources == {"paper", "assumed"}
    assert len(ehningen.edges) == 28
    pinned = ehningen.edge_between(1, 4)
    assert pinned.composite_duration("zz") == 490.0
    assert pinned.composite_duration("zz_swap") == 800.0
    assert pinned.composite_duration("cz") is None
