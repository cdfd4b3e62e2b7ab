import pytest

from herdquad.config import (
    ConfigError,
    MixtureConfig,
    SummarizeConfig,
    build_config,
    parse_kv_file,
    parse_method_spec,
    parse_methods,
    parse_seeds,
)


def write(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return path


def test_parse_kv_file_grammar(tmp_path):
    path = write(tmp_path, """
# comment-only line
k = 25              # trailing comment
seeds = 0..3
methods = wkh, sbq:4
""")
    mapping = parse_kv_file(path)
    assert mapping == {"k": "25", "seeds": "0..3", "methods": "wkh, sbq:4"}


def test_parse_kv_file_rejects_garbage(tmp_path):
    with pytest.raises(ConfigError, match=":2"):
        parse_kv_file(write(tmp_path, "k = 1\nnot a pair\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_file(write(tmp_path, "k = 1\nk = 2\n"))
    with pytest.raises(ConfigError, match="empty key"):
        parse_kv_file(write(tmp_path, " = 3\n"))


def test_parse_kv_file_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"k = 1\nmethods = wkh\xff\n")
    with pytest.raises(ConfigError, match=f"cannot read {path}: byte 0xff at offset 19"):
        parse_kv_file(path)


def test_parse_seeds_forms():
    assert parse_seeds("4") == [4]
    assert parse_seeds("1,2, 5") == [1, 2, 5]
    assert parse_seeds("2..5") == [2, 3, 4, 5]
    assert parse_seeds("7..7") == [7]
    with pytest.raises(ConfigError):
        parse_seeds("5..2")
    with pytest.raises(ValueError):
        parse_seeds("a,b")
    for text in ("-1", "0, -2", "-3..-1", "-1..2"):
        with pytest.raises(ConfigError, match="nonnegative"):
            parse_seeds(text)


def test_parse_method_spec():
    assert parse_method_spec("wkh") == ("WKH", 1)
    assert parse_method_spec("SBQ:8") == ("SBQ", 8)
    assert parse_methods("mc_random, kh_uniform") == [("MC_RANDOM", 1), ("KH_UNIFORM", 1)]
    with pytest.raises(ConfigError, match="unknown method"):
        parse_method_spec("KERNELHERD")
    with pytest.raises(ConfigError, match="positive"):
        parse_method_spec("WKH:0")
    with pytest.raises(ConfigError):
        parse_methods("")


def test_build_mixture_config_round_trip(tmp_path):
    path = write(tmp_path, """
methods = wkh:4, sbq, mc_random
k = 30
seeds = 0..2
pool_size = 500
timing = yes
""")
    cfg = build_config(MixtureConfig, parse_kv_file(path))
    assert cfg.methods == [("WKH", 4), ("SBQ", 1), ("MC_RANDOM", 1)]
    assert cfg.k == 30
    assert cfg.seeds == [0, 1, 2]
    assert cfg.pool_size == 500
    assert cfg.timing is True
    assert build_config(MixtureConfig, {"timing": "off"}).timing is False


def test_unknown_keys_fail_loudly():
    with pytest.raises(ConfigError, match="unknown config keys.*pool_sz"):
        build_config(MixtureConfig, {"pool_sz": "100"})
    # worker counts are spelled only as method:s
    for config_cls in (MixtureConfig, SummarizeConfig):
        with pytest.raises(ConfigError, match=f"unknown config keys for {config_cls.__name__}"):
            build_config(config_cls, {"workers": "3"})
    # the mixture family, the target, the bandwidth, the blob geometry, the
    # split fractions and the ridge strength are fixed, grids run serially
    # and retraining weights every selected example alike
    deleted = {MixtureConfig: ("mean_low", "mean_high", "cov_low", "cov_high",
                               "dirichlet_alpha", "target_form", "bandwidth", "threads"),
               SummarizeConfig: ("separation", "spread", "val_fraction", "test_fraction",
                                 "threads", "lambda", "weighted_retrain")}
    for config_cls, keys in deleted.items():
        for key in keys:
            with pytest.raises(ConfigError, match=f"unknown config keys.*{key}"):
                build_config(config_cls, {key: "1"})


def test_value_validation():
    with pytest.raises(ConfigError, match="bad value"):
        build_config(MixtureConfig, {"k": "ten"})
    with pytest.raises(ConfigError):
        build_config(MixtureConfig, {"k": "0"})
    with pytest.raises(ConfigError, match="boolean"):
        build_config(MixtureConfig, {"timing": "maybe"})


def test_distributed_only_for_optimal_weights():
    with pytest.raises(ConfigError, match="WKH/SBQ only"):
        build_config(MixtureConfig, {"methods": "mc_random:4"})


def test_summarize_config_rules():
    cfg = build_config(SummarizeConfig, {"k_grid": "5,10"})
    assert cfg.k_grid == [5, 10]
    assert cfg.dim == 128
    with pytest.raises(ConfigError, match="WKH, SBQ and MC_RANDOM"):
        build_config(SummarizeConfig, {"methods": "kh_uniform"})
    with pytest.raises(ConfigError, match="k_grid"):
        build_config(SummarizeConfig, {"k_grid": "0,5"})


def test_defaults_construct_cleanly():
    MixtureConfig()
    SummarizeConfig()
