"""The immutable value base every record type of the package derives from."""

from collections import Counter
from fractions import Fraction as F

import pytest

from divstab import sinv
from divstab.cones import Infeasible
from divstab.lattice import LatticeBasis
from divstab.scenario import ScenarioResult


def _result(**changes) -> ScenarioResult:
    return ScenarioResult("lemma_4_1", "s_curve", "PASS", "1/2", "1/2").replace(**changes)


def test_a_field_cannot_be_set_or_deleted():
    result = _result()
    with pytest.raises(AttributeError):
        result.seconds = 1.0
    with pytest.raises(AttributeError):
        result.extra = 1
    with pytest.raises(AttributeError):
        del result.status
    basis = LatticeBasis(["H", "E"])          # a record with its own __init__
    with pytest.raises(AttributeError):
        basis.names = ("H",)
    assert (result.seconds, basis.names) == (0.0, ("H", "E"))


def test_equality_and_hash_are_by_value():
    a, b = sinv.ScheduleChamber(F(0), F(1)), sinv.ScheduleChamber(F(0), F(1))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != sinv.ScheduleChamber(F(0), F(2))
    assert LatticeBasis(["H", "E"]) == LatticeBasis(("H", "E"))
    assert LatticeBasis(["H", "E"]) != LatticeBasis(["E", "H"])
    assert len({_result(), _result(), _result(seconds=2.0)}) == 2
    # the same field values in another record type are another value
    assert Infeasible((1,), "x") != sinv.ScheduleChamber((1,), "x")


def test_defaults_and_replace():
    result = _result()
    assert (result.detail, result.seconds) == ("", 0.0)
    later = result.replace(seconds=2.5, detail="d")
    assert (later.seconds, later.detail, later.name) == (2.5, "d", "lemma_4_1")
    assert result.seconds == 0.0


def test_replace_runs_the_validation_again():
    schedule = sinv.Schedule((sinv.ScheduleChamber(F(0), F(1)),))
    with pytest.raises(sinv.ScheduleError, match="has no chambers"):
        schedule.replace(chambers=())
    with pytest.raises(sinv.ScheduleError, match="must start at u = 0"):
        schedule.replace(chambers=(sinv.ScheduleChamber(F(1), F(2)),))


@pytest.mark.parametrize("args, kwargs, message", [
    ((F(0),), {}, "missing required arguments: 'u_hi'"),
    ((), {"u_hi": F(1)}, "missing required arguments: 'u_lo'"),
    ((F(0), F(1)), {"width": 1}, "unexpected keyword argument 'width'"),
    ((F(0), F(1), (), ()), {}, "takes 3 positional arguments but 4 were given"),
    ((F(0), F(1)), {"u_lo": F(0)}, "multiple values for argument 'u_lo'"),
])
def test_a_missing_or_unknown_field_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        sinv.ScheduleChamber(*args, **kwargs)


def test_fields_bind_by_position_and_by_name_alike():
    by_position = sinv.ScheduleChamber(F(0), F(1), ())
    assert by_position == sinv.ScheduleChamber(u_hi=F(1), negative=(), u_lo=F(0))
    assert by_position == sinv.ScheduleChamber(F(0), u_hi=F(1))


def test_degree_is_computed_once(model, monkeypatch):
    """``cached_property`` keeps its value in the record's own ``__dict__``."""
    calls = Counter()
    product = sinv.triple_product

    def counted(*args):
        calls["triple_product"] += 1
        return product(*args)
    monkeypatch.setattr(sinv, "triple_product", counted)
    fresh = model.replace()                   # a new instance, nothing cached yet
    assert fresh == model and fresh is not model
    assert fresh.degree == fresh.degree == F(28)
    assert calls["triple_product"] == 1 and vars(fresh)["degree"] == F(28)


def test_repr_is_the_dataclass_format():
    assert repr(sinv.ScheduleChamber(F(0), F(1))) == (
        "ScheduleChamber(u_lo=Fraction(0, 1), u_hi=Fraction(1, 1), negative=())")
    assert repr(_result()) == (
        "ScenarioResult(name='lemma_4_1', kind='s_curve', status='PASS', computed='1/2', "
        "expected='1/2', detail='', seconds=0.0)")
    assert repr(LatticeBasis(["H", "E"])) == "LatticeBasis(names=('H', 'E'))"
    assert repr(Infeasible((1, -2), "why")) == "Infeasible(witness=(1, -2), detail='why')"
