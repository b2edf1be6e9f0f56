"""Unit tests for QoS guarantees and offers."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.core.guarantee import DeadlineOffer, QoSGuarantee


def make_guarantee(deadline=5000.0, probability=0.9, negotiated_at=100.0):
    return QoSGuarantee(
        job_id=1,
        deadline=deadline,
        probability=probability,
        predicted_failure_probability=1.0 - probability,
        negotiated_at=negotiated_at,
        planned_start=1000.0,
        planned_nodes=(0, 1),
        offers_declined=0,
    )


class TestValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            make_guarantee(probability=1.2)
        with pytest.raises(ValueError):
            make_guarantee(probability=-0.1)

    def test_deadline_after_negotiation(self):
        with pytest.raises(ValueError):
            make_guarantee(deadline=50.0, negotiated_at=100.0)


class TestSemantics:
    def test_slack(self):
        assert make_guarantee().slack == 4900.0

    def test_kept_on_time(self):
        assert make_guarantee().kept(4999.0)
        assert make_guarantee().kept(5000.0)

    def test_broken_when_late(self):
        assert not make_guarantee().kept(5001.0)

    def test_broken_when_never_finished(self):
        assert not make_guarantee().kept(None)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            make_guarantee().probability = 0.5


class TestLeanRecord:
    """One promise is kept per job for the whole run: slots, no dict."""

    def test_has_no_instance_dict(self):
        g = make_guarantee()
        assert not hasattr(g, "__dict__")
        assert set(QoSGuarantee.__slots__) == {
            f.name for f in dataclasses.fields(QoSGuarantee)
        }

    def test_rejects_assignment_and_new_attributes(self):
        g = make_guarantee()
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.deadline = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.note = "late"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del g.deadline
        assert g.deadline == 5000.0

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        g = dataclasses.replace(make_guarantee(), offers_declined=3)
        back = pickle.loads(pickle.dumps(g, protocol=protocol))
        assert back == g and hash(back) == hash(g)
        assert dataclasses.astuple(back) == dataclasses.astuple(g)
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.probability = 0.5

    def test_copies_are_equal(self):
        g = make_guarantee()
        assert copy.copy(g) == g == copy.deepcopy(g)

    def test_equality_and_hash_cover_every_field(self):
        g = make_guarantee()
        assert g == make_guarantee() and hash(g) == hash(make_guarantee())
        assert g != dataclasses.replace(g, offers_declined=1)
        assert len({g, make_guarantee(), make_guarantee(deadline=6000.0)}) == 2


class TestDeadlineOffer:
    def test_fields(self):
        offer = DeadlineOffer(
            start=10.0,
            nodes=(1, 2),
            deadline=110.0,
            probability=0.8,
            failure_probability=0.2,
        )
        assert offer.deadline - offer.start == 100.0
        assert offer.probability + offer.failure_probability == pytest.approx(1.0)

    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            DeadlineOffer(
                start=10.0,
                nodes=(1,),
                deadline=110.0,
                probability=1.2,
                failure_probability=0.2,
            )
        with pytest.raises(ValueError):
            DeadlineOffer(
                start=10.0,
                nodes=(1,),
                deadline=110.0,
                probability=-0.1,
                failure_probability=0.2,
            )

    def test_rejects_failure_probability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            DeadlineOffer(
                start=10.0,
                nodes=(1,),
                deadline=110.0,
                probability=0.8,
                failure_probability=1.0000001,
            )
