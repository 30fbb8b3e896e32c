"""Monte-Carlo simulator of two-hop IAB uplink networks at 28 GHz with
elitist genetic-algorithm transmit-power control."""

from .config import ConfigError, ScenarioConfig, load_config
from .coverage import ScenarioInstance, build_instance, monte_carlo_coverage
from .ga import GaParams, GaResult, optimize
from .topology import Topology, build_topology

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ScenarioConfig", "load_config",
    "ScenarioInstance", "build_instance", "monte_carlo_coverage",
    "GaParams", "GaResult", "optimize",
    "Topology", "build_topology",
    "__version__",
]
