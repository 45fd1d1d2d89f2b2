"""The contract of the package's records: named fields in a fixed order,
keyword construction, a ``Name(field=value, ...)`` repr, immutability and
value semantics."""

import copy
from fractions import Fraction as F

import pytest

from delayswitch import analysis, engine, validate
from delayswitch.analysis import Behavior, RegimeKind

ROWS = ((0, 0, "hit"), (66, 66, "hit"), (89, 89, "switch"))
TRACE = engine.SimTrace(F(89, 66), ROWS)
REGIME = analysis.Regime(RegimeKind.AT_TAU, 1)
PREDICTION = analysis.Prediction(REGIME, Behavior.PERIODIC, 6)
CHECK = validate.TheoremCheck(F(4, 3), PREDICTION, "periodic", 6, True, "", True)

RECORDS = [
    (analysis.Regime, {"kind": RegimeKind.AT_THETA, "k": 2}),
    (analysis.Prediction, {"regime": REGIME, "behavior": Behavior.PERIODIC, "switch_count": 6}),
    (engine.TurningPoint, {"beta": F(89, 66), "alpha": F(89, 66)}),
    (engine.TraceEvent, {"t": F(1), "x": F(1), "kind": "hit"}),
    (engine.SimTrace, {"tau": F(89, 66), "rows": ROWS}),
    (
        engine.Periodic,
        {"least_period": F(218, 33), "switchings_per_period": 6, "start_switch": 1, "trace": TRACE},
    ),
    (engine.Divergent, {"direction": -1, "total_switchings": 9, "trace": TRACE}),
    (engine.Undetermined, {"switchings_executed": 1, "trace": TRACE}),
    (
        validate.TheoremCheck,
        {
            "tau": F(4, 3),
            "prediction": PREDICTION,
            "simulated_behavior": "periodic",
            "simulated_switches": 6,
            "agree": True,
            "reason": "",
            "certificate_ok": True,
        },
    ),
    (
        validate.ClosedFormCheck,
        {"tau": F(4, 3), "horizon": 6, "simulated_horizon": 6, "agree": True, "mismatches": ()},
    ),
    (validate.SweepReport, {"k_max": 1, "samples_per_interval": 0, "entries": (CHECK,)}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_values_with_named_ordered_fields(cls, fields):
    record = cls(**fields)
    assert cls(*fields.values()) == record
    assert [getattr(record, name) for name in fields] == list(fields.values())
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    twin = cls(**copy.deepcopy(fields))
    assert twin == record and hash(twin) == hash(record)
    if cls is engine.SimTrace:
        assert record.events is record.events
        assert record.turning_points is record.turning_points
        assert record == twin and hash(record) == hash(twin)  # the views are not compared


def test_record_defaults():
    assert analysis.Regime(RegimeKind.OUT_OF_RANGE).k is None
