"""Config loading, validation, and override semantics."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysfuse.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)


class TestValidate:
    def test_defaults_are_valid(self):
        assert RunConfig().validate() == []

    def test_all_violations_collected_at_once(self):
        cfg = RunConfig(width=7, precision="f16", cutoff=-1.0)
        errs = cfg.validate()
        assert len(errs) == 3
        text = " ".join(errs)
        assert "width" in text and "precision" in text and "cutoff" in text

    def test_width_must_be_divisible_by_four(self):
        assert RunConfig(width=64).validate() == []
        assert any("divisible by 4" in e for e in RunConfig(width=30).validate())

    def test_l_max_range(self):
        for bad in (-1, 4, 1.5):
            assert RunConfig(l_max=bad).validate(), bad
        for ok in (0, 3):
            assert RunConfig(l_max=ok).validate() == []

    def test_head_enum(self):
        assert any("head" in e for e in RunConfig(head="mlp").validate())

    def test_beta_upper_bound_is_open(self):
        assert any("beta2" in e for e in RunConfig(beta2=1.0).validate())
        assert RunConfig(beta2=0.0).validate() == []

    def test_contrastive_pool_needs_two(self):
        assert any("pretrain_batch_size" in e
                   for e in RunConfig(pretrain_batch_size=1).validate())

    def test_split_ratios_must_sum_to_one(self):
        cfg = RunConfig(train_ratio=0.7, val_ratio=0.1, test_ratio=0.1)
        assert any("sum to 1" in e for e in cfg.validate())

    def test_bool_is_not_a_number(self):
        assert any("sigma must be a number" in e
                   for e in RunConfig(sigma=True).validate())

    def test_lambda_weights_may_be_zero(self):
        assert RunConfig(lambda_se3=0.0, lambda_so3=0.0).validate() == []


class TestLoading:
    def test_unknown_keys_rejected_sorted(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"zeta": 1, "alpha": 2})
        assert exc.value.errors == ["unknown config key 'alpha'",
                                    "unknown config key 'zeta'"]

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            config_from_dict([1, 2])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"width": 8, "seed": 5, "l_max": 1}))
        cfg = load_config(str(path))
        assert (cfg.width, cfg.seed, cfg.l_max) == (8, 5, 1)
        assert cfg.cutoff == RunConfig().cutoff  # untouched default

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))


class TestOverrides:
    def test_none_values_ignored(self):
        cfg = RunConfig(seed=3)
        new = apply_overrides(cfg, seed=None, precision=None)
        assert new == cfg

    def test_values_applied_and_original_kept(self):
        cfg = RunConfig(seed=3)
        new = apply_overrides(cfg, seed=9, data="x.jsonl")
        assert (new.seed, new.data) == (9, "x.jsonl")
        assert cfg.seed == 3 and cfg.data is None

    def test_invalid_override_rejected(self):
        with pytest.raises(ConfigError, match="precision"):
            apply_overrides(RunConfig(), precision="f128")

    def test_fields_stay_in_sync_with_dataclass(self):
        # every CLI override key must be a real config field
        names = {f.name for f in dataclasses.fields(RunConfig)}
        for key in ("seed", "precision", "trials", "data", "out",
                    "from_checkpoint"):
            assert key in names


_JSON_VALUES = (st.sampled_from([float("nan"), float("inf"), -float("inf"),
                                 None, True, False])
                | st.text(max_size=4)
                | st.lists(st.integers(-3, 3) | st.floats(), max_size=3)
                | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
                | st.integers(-10**30, 10**30)
                | st.floats())
_FIELDS = dataclasses.fields(RunConfig)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(value=_JSON_VALUES)
def test_any_json_value_gives_a_finite_config_or_config_error(value):
    """Whatever JSON value any one field holds, `config_from_dict` returns
    a config whose real-valued fields are finite, or raises ConfigError."""
    for field in _FIELDS:
        try:
            cfg = config_from_dict({field.name: value})
        except ConfigError:
            continue
        for real in _FIELDS:
            if real.type == "float":
                assert math.isfinite(getattr(cfg, real.name)), (field.name, real.name)
