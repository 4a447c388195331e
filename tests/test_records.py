"""The package's eight records: plain frozen classes built on one base,
``distributions._Record``, that behave as frozen dataclasses did."""

import pickle

import pytest

import pilotplan.tables as tables
from pilotplan import (ConfigError, EffectPilotPlan, EffectSpec, PowerBounds,
                       SimulationConfig, SimulationReport, TestDesign,
                       VariancePilotPlan, plan_effect_pilot, plan_variance_pilot,
                       simulate_variance_pipeline)
from pilotplan.tables import TableReport, reproduce_table

_BOUNDS = PowerBounds(0.2, 0.6, 0.1, 0.9)
_CONFIG = SimulationConfig("variance", 1.0, 12, 7, replicates=50)

# each record with one field changed to another valid value
RECORDS = [
    (TestDesign("one-sample", 0.01), {"alpha": 0.02}),
    (EffectSpec(2.0, 4.0), {"sigma": 3.0}),
    (_BOUNDS, {"overpower_prob": 0.2}),
    (plan_variance_pilot(EffectSpec(1, 4), TestDesign(), 0.8, _BOUNDS), {"pilot_n": 99}),
    (plan_effect_pilot(0.5, 1.0, TestDesign(), 0.8, _BOUNDS), {"mu0": 0.6}),
    (_CONFIG, {"seed": 8}),
    (simulate_variance_pipeline(_CONFIG), {"nonpositive_effects": 1}),
    (reproduce_table(2, replicates=20, seed=1), {"extra": {}}),
]


@pytest.mark.parametrize("record,change", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record(record, change):
    cls, fields = type(record), dict(vars(record))
    values, names = list(fields.values()), list(fields)
    assert cls in (TestDesign, EffectSpec, PowerBounds, VariancePilotPlan, EffectPilotPlan,
                   SimulationConfig, SimulationReport, TableReport)

    # built by position or by keyword, the fields in order; the defaults are
    # the class values
    for built in (cls(*values), cls(**fields), cls(*values[:1], **dict(list(fields.items())[1:]))):
        assert built == record and list(vars(built)) == names
    required = {k: v for k, v in fields.items() if not hasattr(cls, k)}
    assert vars(cls(**required)) == {k: required[k] if k in required else getattr(cls, k)
                                     for k in names}

    # a missing, unknown or doubled field, or one too many by position
    if required:
        with pytest.raises(TypeError, match=f"missing '{next(iter(required))}'"):
            cls(**dict(list(required.items())[1:]))
    with pytest.raises(TypeError, match="unknown 'bogus'"):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError, match=f"doubled '{names[0]}'"):
        cls(*values[:1], **fields)
    with pytest.raises(TypeError, match="by position"):
        cls(*values, None)

    # frozen: no field is set or deleted, and no attribute added
    for act in (lambda: setattr(record, names[0], values[0]),
                lambda: delattr(record, names[-1]),
                lambda: setattr(record, "other", 1)):
        with pytest.raises(AttributeError, match="frozen"):
            act()
    assert dict(vars(record)) == fields

    # equal and hashed by type and fields
    changed = record.replace(**change)
    assert changed != record and {**fields, **change} == vars(changed)
    assert record.replace() == record
    twin = type("Twin", (cls,), {})(**fields)
    assert twin != record and record != twin and list(vars(twin)) == names
    try:
        hash(tuple(values))
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**fields)) and len({record, cls(**fields)}) == 1

    # an output record's results are exactly its fields outside its config:
    # a plan's config is its input fields, a report's its one config field
    if hasattr(cls, "results"):
        inputs = set(record.config) & set(names) or {"config"}
        assert all(fields[k] == record.config[k] for k in inputs - {"config"})
        assert record.results == {k: v for k, v in fields.items() if k not in inputs}

    # a pickle round trip, on every protocol
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record and list(vars(back)) == names


def test_replace_runs_the_checks_again():
    with pytest.raises(ConfigError, match="alpha must be in"):
        TestDesign().replace(alpha=2.0)
    with pytest.raises(ConfigError, match="sigma must be finite"):
        EffectSpec(0.5).replace(sigma=0.0)
    with pytest.raises(ConfigError, match="given together"):
        PowerBounds(0.2, 0.6).replace(overpower_prob=0.1)
    with pytest.raises(TypeError, match="unknown 'beta'"):
        TestDesign().replace(beta=0.2)


def test_simulation_config_checks_when_built():
    # as the other input records do: no config with a bad field exists
    fields = dict(vars(_CONFIG))
    for change, message in (({"replicates": 0}, "replicates must be an integer >= 1, got 0"),
                            ({"underpower_threshold": 0.9},
                             "underpower_threshold must be below the target power 0.8, got 0.9")):
        with pytest.raises(ConfigError, match=message):
            SimulationConfig(**{**fields, **change})
        with pytest.raises(ConfigError, match=message):
            _CONFIG.replace(**change)


def test_reprs_are_the_dataclass_reprs():
    # frozen from the dataclasses these records replace
    assert repr(TestDesign()) == "TestDesign(kind='two-sample', alpha=0.05)"
    assert repr(EffectSpec(0.5)) == "EffectSpec(effect=0.5, sigma=1.0)"
    assert repr(PowerBounds(0.2, 0.6)) == (
        "PowerBounds(underpower_prob=0.2, underpower_threshold=0.6, overpower_prob=None, "
        "overpower_threshold=None)")


@pytest.mark.parametrize("table_id", [1, 2])
def test_table_config_holds_every_cells_grid(monkeypatch, table_id):
    # each cell's plan and simulation run the main study the report's config
    # names, whatever the defaults of the planners and of SimulationConfig,
    # and each sizes through a sizer of that design
    plans, configs = [], []
    for name in ("_plan_variance", "_plan_effect"):
        def plan(sizer, *args, _run=getattr(tables, name)):
            plans.append((sizer.design, *args[-2:]))
            return _run(sizer, *args)
        monkeypatch.setattr(tables, name, plan)

    def run(config, sizer, _run=tables._run):
        configs.append(config)
        assert sizer.design == config.design()
        return _run(config, sizer)
    monkeypatch.setattr(tables, "_run", run)
    report = reproduce_table(table_id, replicates=5, seed=1)
    grid = {k: v for k, v in report.config.items() if k not in ("table_id", "seed")}
    assert set(grid) == {"replicates", "sizing_mode", "alpha", "power_target",
                         "underpower_threshold", "kind"}
    assert len(configs) == len(plans) == len(report.cells)
    for config in configs:
        assert {k: vars(config)[k] for k in grid} == grid
    for design, target, bounds in plans:
        assert (design.kind, design.alpha, target, bounds.underpower_threshold) == (
            grid["kind"], grid["alpha"], grid["power_target"], grid["underpower_threshold"])
