import math
import re
from pathlib import Path

import pytest

from urllc_ee import (DEFAULT_CONFIG_TEXT, ConfigError, SystemConfig,
                      UserProfile, config_io, path_loss_gain,
                      parse_config_text, validate_config)
from urllc_ee.experiments import config_digest
from urllc_ee.model import dbm_to_watts


class TestPathLoss:
    def test_one_meter_leaves_constant_term(self):
        assert path_loss_gain(1.0) == pytest.approx(
            10 ** -3.53, rel=1e-12, abs=0)

    def test_cell_edge(self):
        # direct evaluation of the log-distance formula at 250 m
        expected = 10 ** (-(35.3 + 37.6 * math.log10(250.0)) / 10)
        assert path_loss_gain(250.0) == pytest.approx(
            expected, rel=1e-12, abs=0)
        assert path_loss_gain(250.0) == pytest.approx(
            2.8428e-13, rel=1e-4, abs=0)

    def test_ten_meters(self):
        assert path_loss_gain(10.0) == pytest.approx(
            10 ** -7.29, rel=1e-12, abs=0)

    def test_attenuation_below_one(self):
        for d in (1.0, 5.0, 50.0, 500.0):
            assert 0 < path_loss_gain(d) < 1

    def test_rejects_nonpositive_distance(self):
        # the one check of a distance, and a ConfigError (a ValueError);
        # the gain of 1e-300 m would be past 1e1124
        for d in (0.0, -3.0, -5.0, math.nan, 1e-300):
            with pytest.raises(ConfigError, match=f"distance {d} m"):
                path_loss_gain(d)


class TestUnitConversions:
    def test_dbm_roundtrip(self):
        for x in (1e-6, 1e-3, 10.0):
            x_dbm = 10.0 * math.log10(x * 1e3)
            assert dbm_to_watts(x_dbm) == pytest.approx(x, rel=1e-12)

    def test_reference_values(self):
        assert dbm_to_watts(40.0) == pytest.approx(10.0, rel=1e-12)
        assert dbm_to_watts(-173.0) == pytest.approx(
            10 ** -20.3, rel=1e-12, abs=0)


class TestValidateConfig:
    def test_reference_queue_budget(self, cfg, single_user):
        # 1 ms end to end minus one UL and one DL frame leaves 0.8 ms
        qos = validate_config(cfg, [single_user])
        assert qos.queue_delay_frames == 8

    def test_three_frames_leave_one_queueing_frame(self, single_user):
        # (3e-4 - 2e-4) / 1e-4 rounds to just below 1, and 2e-4 + 1e-4 to
        # just above 3e-4; neither may refuse the one frame left
        qos = validate_config(SystemConfig(e2e_delay=3e-4), [single_user])
        assert qos.queue_delay_frames == 1

    def test_equal_split(self, cfg, single_user):
        qos = validate_config(cfg, [single_user])
        assert qos.eps_c == qos.eps_q == qos.eps_h == pytest.approx(
            1e-7, abs=0)
        assert qos.eps_c + qos.eps_q + qos.eps_h \
            <= cfg.loss_budget * (1 + 1e-12)

    def test_split_sums_within_budget(self, single_user):
        for eps_d in (1e-9, 3e-7, 1e-3, 0.3):
            cfg = SystemConfig(loss_budget=eps_d)
            qos = validate_config(cfg, [single_user])
            assert qos.eps_c + qos.eps_q + qos.eps_h <= eps_d * (1 + 1e-12)

    def test_nonpositive_queue_budget_rejected(self, single_user):
        cfg = SystemConfig(e2e_delay=0.2e-3)
        with pytest.raises(ConfigError) as err:
            validate_config(cfg, [single_user])
        assert any("e2e_delay" in s or "queueing" in s
                   for s in err.value.violations)

    def test_zero_users_rejected(self, cfg):
        with pytest.raises(ConfigError) as err:
            validate_config(cfg, [])
        assert any("user" in s for s in err.value.violations)

    def test_violations_name_fields(self, single_user):
        for bad in ({"total_bandwidth": -1.0, "amplifier_efficiency": 1.5},
                    {"noise_psd": math.nan}, {"max_bs_power": math.nan},
                    {"circuit_power_per_antenna": math.inf},
                    {"total_bandwidth": math.inf},
                    # the budget splits in thirds, and 5e-324 / 3 is 0.0
                    {"loss_budget": 5e-324}, {"loss_budget": 0.0}):
            with pytest.raises(ConfigError) as err:
                validate_config(SystemConfig(**bad), [single_user])
            joined = " ".join(err.value.violations)
            for name in bad:
                assert name in joined

    def test_component_override(self, cfg, single_user):
        qos = validate_config(cfg, [single_user], eps_h=1e-4)
        assert qos.eps_h == 1e-4
        assert qos.eps_c == pytest.approx(1e-7, abs=0)

    def test_backhaul_longer_than_a_frame_rejected(self, single_user):
        # the two-frame allowance absorbs at most one backhaul frame, so a
        # longer backhaul would silently leave the queueing budget as is
        for ok in (0.0, 1e-4):
            validate_config(SystemConfig(backhaul_delay=ok), [single_user])
        for bad in (6e-4, math.nextafter(1e-4, 1), -1e-4, math.nan):
            with pytest.raises(ConfigError, match="backhaul_delay") as err:
                validate_config(SystemConfig(backhaul_delay=bad),
                                [single_user])
            assert err.value.violations[0].startswith("backhaul_delay")

    @pytest.mark.parametrize("line", [
        "frame_duration = nan", "frame_duration = 0", "e2e_delay = 2.5e-4",
        "backhaul_delay = nan"])
    def test_one_fault_one_violation(self, line):
        # the checks that compare with a bad value, or with the users'
        # packets/frame that a bad frame_duration gives, stay silent
        key = line.split(" = ")[0]
        default = next(l for l in DEFAULT_CONFIG_TEXT.splitlines()
                       if l.startswith(key + " = "))
        cfg, users = parse_config_text(
            DEFAULT_CONFIG_TEXT.replace(default, line))
        with pytest.raises(ConfigError) as err:
            validate_config(cfg, users)
        assert len(err.value.violations) == 1, err.value.violations
        assert err.value.violations[0].startswith(key)

    def test_bad_user_rejected(self, cfg):
        with pytest.raises(ConfigError):
            validate_config(cfg, [UserProfile(arrival_rate=-1.0,
                                              gain=path_loss_gain(100.0))])


class TestUserProfile:
    def test_gain_from_distance(self, cfg):
        u = UserProfile(cfg.packets_per_frame(20 * 10.0),
                        path_loss_gain(250.0))
        assert u.gain == path_loss_gain(250.0)


class TestConfigFile:
    def test_default_text_parses(self):
        from urllc_ee import DEFAULT_CONFIG_TEXT
        cfg, users = parse_config_text(DEFAULT_CONFIG_TEXT)
        assert cfg.total_bandwidth == 20e6
        assert cfg.noise_psd == pytest.approx(10 ** -20.3, rel=1e-12, abs=0)
        assert cfg.max_bs_power == pytest.approx(10.0, rel=1e-12)
        assert len(users) == 1
        assert users[0].arrival_rate == pytest.approx(0.02, rel=1e-12)

    def test_default_cell_and_its_digest(self):
        # the cell every default-config output is computed on, and the
        # digest in the header of each of their CSV files
        cfg, users = parse_config_text(DEFAULT_CONFIG_TEXT)
        assert cfg == SystemConfig()
        assert users == [UserProfile(cfg.packets_per_frame(200.0),
                                     path_loss_gain(250.0))]
        assert config_digest(SystemConfig()) == "ecc535189ba0a525"

    def test_multiple_users(self):
        text = ("user_distances_m = 250, 120, 60\n"
                "nodes_per_user = 20\nnode_packet_rate_hz = 10\n")
        cfg, users = parse_config_text(text)
        assert [u.gain for u in users] == [path_loss_gain(d)
                                           for d in (250.0, 120.0, 60.0)]

    def test_gain_users(self):
        text = ("user_gains = 1e-12, 3e-11\n"
                "user_arrival_rates_pps = 200, 400\n")
        cfg, users = parse_config_text(text)
        assert users[0].gain == 1e-12
        assert users[1].arrival_rate == pytest.approx(400 * cfg.frame_duration)

    def test_linear_power_keys(self):
        text = ("noise_psd = 5e-21\nmax_bs_power = 12.5\n"
                "user_distances_m = 100\nuser_arrival_rates_pps = 200\n")
        cfg, _users = parse_config_text(text)
        assert cfg.noise_psd == 5e-21
        assert cfg.max_bs_power == 12.5

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("frame_duration = 1e-4\nnot_a_key = 3\n")

    def test_bad_number_names_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("frame_duration = fast\n")

    def test_duplicate_key_names_both_lines(self):
        text = DEFAULT_CONFIG_TEXT.replace(
            "total_bandwidth = 20e6", "total_bandwidth = 20e6\n"
            "total_bandwidth = 5e6")
        with pytest.raises(ConfigError, match="line 8.*line 7"):
            parse_config_text(text)

    @pytest.mark.parametrize("first, second", [
        ("noise_psd_dbm_hz = -173", "noise_psd = 1e-15"),
        ("max_bs_power_dbm = 40", "max_bs_power = 1"),
        ("user_distances_m = 250", "user_gains = 1e-12"),
    ], ids=["noise", "power", "users"])
    def test_both_forms_of_one_quantity_name_both_lines(self, first, second):
        # either form alone parses; both together used to keep one silently
        line = DEFAULT_CONFIG_TEXT.splitlines().index(first) + 1
        text = DEFAULT_CONFIG_TEXT.replace(first, f"{first}\n{second}")
        key, other = second.split(" =")[0], first.split(" =")[0]
        with pytest.raises(ConfigError, match=(
                rf"line {line + 1}: key '{key}' .* '{other}' on line {line}$")):
            parse_config_text(text)
        parse_config_text(DEFAULT_CONFIG_TEXT.replace(first, second))

    @pytest.mark.parametrize("dists, message", [
        ("0", "line 16: user 0: distance 0.0 m must be positive"),
        ("250, -5", "line 16: user 1: distance -5.0 m must be positive"),
        ("250, nan", "line 16: user 1: distance nan m must be positive"),
        ("1e-300", "line 16: user 0: distance 1e-300 m: gain overflows"),
    ], ids=["zero", "negative", "nan", "overflow"])
    def test_bad_distance_names_line(self, dists, message):
        text = DEFAULT_CONFIG_TEXT.replace("user_distances_m = 250",
                                           f"user_distances_m = {dists}")
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert str(err.value) == message

    def test_readme_table_lists_every_key(self):
        # the backticked keys of README's "Config keys" table
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("### Config keys\n", 1)[1].split("\n\n", 1)[0]
        keys = {k for row in table.splitlines()[2:]
                for k in re.findall(r"`([^`]+)`", row.split("|")[1])}
        assert keys == config_io._SCALAR_KEYS | config_io._LIST_KEYS
        assert len(keys) == 19

    def test_dbm_overflow_names_line(self):
        text = DEFAULT_CONFIG_TEXT.replace("max_bs_power_dbm = 40",
                                           "max_bs_power_dbm = 3083")
        with pytest.raises(ConfigError, match="line 8: max_bs_power_dbm"):
            parse_config_text(text)

    def test_fractional_nodes_per_user_rejected(self):
        text = DEFAULT_CONFIG_TEXT.replace("nodes_per_user = 20",
                                           "nodes_per_user = 2.7")
        with pytest.raises(ConfigError, match="nodes_per_user"):
            parse_config_text(text)

    def test_fractional_packet_bits_rejected(self):
        text = DEFAULT_CONFIG_TEXT.replace("packet_bits = 160",
                                           "packet_bits = 160.9")
        with pytest.raises(ConfigError, match="packet_bits"):
            parse_config_text(text)

    def test_missing_users_rejected(self):
        with pytest.raises(ConfigError, match="user"):
            parse_config_text("frame_duration = 1e-4\n")

    def test_comments_and_blanks_ignored(self):
        text = ("# header\n\nuser_distances_m = 100  # inline\n"
                "user_arrival_rates_pps = 200\n")
        _cfg, users = parse_config_text(text)
        assert users[0].gain == path_loss_gain(100.0)
