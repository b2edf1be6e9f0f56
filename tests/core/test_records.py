"""The per-job records of a dialogue and the event handle are slotted.

The event, the reservation, the offer, the promise and the dialogue
outcome are built once or more per job, so none has a ``__dict__``.  The
three frozen ones keep their dataclass behaviour (value equality and
hash, ``fields``, ``replace``, ``FrozenInstanceError``, pickling); the
event and the reservation stay mutable and unhashable.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import pytest

from repro.cluster.nodeset import NodeSet
from repro.cluster.reservations import Reservation
from repro.core.guarantee import DeadlineOffer, QoSGuarantee
from repro.core.negotiation import NegotiationOutcome
from repro.sim.events import Event, EventKind

GUARANTEE_ARGS = (7, 500.0, 0.9, 0.1, 100.0, 200.0, (0, 1), 2)
OFFER_ARGS = (200.0, NodeSet.from_iterable([0, 1]), 500.0, 0.9, 0.1)


def guarantee(**changes):
    return dataclasses.replace(QoSGuarantee(*GUARANTEE_ARGS), **changes)


#: Each record class with positional arguments for one instance.
POSITIONAL = {
    "event": (Event, (1.0, EventKind.FINISH, {"job_id": 3}, 4, False)),
    "reservation": (Reservation, (3, (0, 1), 10.0, 20.0)),
    "offer": (DeadlineOffer, OFFER_ARGS),
    "guarantee": (QoSGuarantee, GUARANTEE_ARGS),
    "outcome": (
        NegotiationOutcome,
        (QoSGuarantee(*GUARANTEE_ARGS), 200.0, (0, 1), 500.0, 3, False),
    ),
}
FIELD_NAMES = {
    "event": ("time", "kind", "payload", "seq", "cancelled"),
}
#: The frozen records, each with one valid change for ``replace``.
FROZEN = {
    "offer": ("deadline", 600.0),
    "guarantee": ("offers_declined", 3),
    "outcome": ("forced", True),
}


def keywords(name):
    cls, args = POSITIONAL[name]
    names = FIELD_NAMES.get(name) or [f.name for f in dataclasses.fields(cls)]
    return dict(zip(names, args))


@pytest.mark.parametrize("name", sorted(POSITIONAL))
def test_no_instance_dict_and_keyword_form_is_equal(name):
    cls, args = POSITIONAL[name]
    record = cls(*args)
    assert not hasattr(record, "__dict__")
    assert cls(**keywords(name)) == record
    assert copy.copy(record) == record == copy.deepcopy(record)


@pytest.mark.parametrize("name", ["event", "reservation"])
def test_mutable_records_stay_unhashable(name):
    cls, args = POSITIONAL[name]
    with pytest.raises(TypeError):
        hash(cls(*args))


def test_event_keeps_its_defaults_and_compares_by_value():
    event = Event(time=1.0, kind=EventKind.WAKEUP)
    assert (event.payload, event.seq, event.cancelled, event.on_cancel) == (
        {}, 0, False, None
    )
    assert event == Event(1.0, EventKind.WAKEUP, {}, 0, False, print)
    assert event != Event(1.0, EventKind.WAKEUP, seq=1)
    assert event != (1.0, EventKind.WAKEUP)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_keep_their_dataclass_behaviour(name):
    cls, args = POSITIONAL[name]
    record = cls(*args)
    names = [f.name for f in dataclasses.fields(cls)]
    assert tuple(names) == cls.__slots__
    assert [getattr(record, n) for n in names] == list(args)
    assert hash(record) == hash(cls(*args))
    assert len({record, cls(*args)}) == 1
    first = names[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, args[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.note = "late"
    field, value = FROZEN[name]
    changed = dataclasses.replace(record, **{field: value})
    assert changed != record and getattr(changed, field) == value
    assert repr(record).startswith(f"{cls.__name__}({first}=")
    back = pickle.loads(pickle.dumps(record))
    assert back == record and hash(back) == hash(record)


@pytest.mark.parametrize("field_index", [3, 4])
@pytest.mark.parametrize("value", [-0.1, 1.2, math.nan])
def test_offer_range_checks_still_raise(field_index, value):
    args = list(OFFER_ARGS)
    args[field_index] = value
    with pytest.raises(ValueError, match="not in"):
        DeadlineOffer(*args)


@pytest.mark.parametrize(
    "changes", [{"probability": 1.5}, {"probability": math.nan}, {"deadline": 50.0}]
)
def test_guarantee_checks_still_raise(changes):
    with pytest.raises(ValueError, match="job 7"):
        guarantee(**changes)
