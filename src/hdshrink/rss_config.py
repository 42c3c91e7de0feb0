"""Config file loader for the sensor-data experiment."""

from __future__ import annotations

from .rss import RssExperimentConfig
from .scoring import parse_config


def load_rss_config(path) -> RssExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(RssExperimentConfig, fh.read())
