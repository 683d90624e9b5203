"""INI configuration files (paper Appendix A.3).

``sys-config.ini`` selects simulation vs prototype mode, the machine
model and the manifest to load; one ``<algo>-config.ini`` per scheduler
selects the policy and its utility weights.  "If many are provided, the
system will execute multiple runs configured with different schedule
algorithms."
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from repro.core.utility import UtilityParams


class ConfigError(ValueError):
    """Raised for malformed configuration files."""


@dataclass(frozen=True)
class SystemConfig:
    """Contents of ``sys-config.ini``."""

    simulation: bool = True
    machine: str = "power8-minsky"  # power8-minsky | dgx1 | power8-pcie-k80
    n_machines: int = 1
    manifest_path: str | None = None
    scheduler_interval_s: float = 1.0

    def topology_factory(self):
        """Builder callable for the configured machine/cluster."""
        from repro.topology import builders

        per_machine = {
            "power8-minsky": builders.power8_minsky,
            "dgx1": builders.dgx1,
            "power8-pcie-k80": builders.power8_pcie_k80,
        }
        try:
            base = per_machine[self.machine]
        except KeyError:
            raise ConfigError(f"unknown machine model {self.machine!r}") from None
        if self.n_machines == 1:
            return base
        return lambda: builders.cluster(self.n_machines, base)


@dataclass(frozen=True)
class AlgorithmConfig:
    """Contents of one ``<algo>-config.ini``."""

    name: str  # FCFS | BF | TOPO-AWARE | TOPO-AWARE-P | RANDOM
    alpha_cc: float = 1.0 / 3.0
    alpha_b: float = 1.0 / 3.0
    alpha_d: float = 1.0 / 3.0
    max_postponements: int | None = None

    def utility_params(self) -> UtilityParams:
        return UtilityParams(
            alpha_cc=self.alpha_cc, alpha_b=self.alpha_b, alpha_d=self.alpha_d
        )

    def make_scheduler(self):
        from repro.schedulers import make_scheduler

        kwargs = {}
        if self.name.upper().replace("_", "-") == "TOPO-AWARE-P":
            kwargs["max_postponements"] = self.max_postponements
        return make_scheduler(self.name, **kwargs)


def _read_ini(path: str | Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    text = Path(path).read_text()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parser


def load_system_config(path: str | Path) -> SystemConfig:
    """Parse ``sys-config.ini``."""
    parser = _read_ini(path)
    if not parser.has_section("system"):
        raise ConfigError(f"{path}: missing [system] section")
    section = parser["system"]
    try:
        return SystemConfig(
            simulation=section.getboolean("simulation", fallback=True),
            machine=section.get("machine", fallback="power8-minsky"),
            n_machines=section.getint("machines", fallback=1),
            manifest_path=section.get("manifest", fallback=None),
            scheduler_interval_s=section.getfloat(
                "scheduler_interval", fallback=1.0
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_algorithm_config(path: str | Path) -> AlgorithmConfig:
    """Parse one ``<algo>-config.ini``."""
    parser = _read_ini(path)
    if not parser.has_section("scheduler"):
        raise ConfigError(f"{path}: missing [scheduler] section")
    section = parser["scheduler"]
    name = section.get("algorithm", fallback=None)
    if not name:
        raise ConfigError(f"{path}: [scheduler] needs an 'algorithm' key")
    try:
        alphas = (
            section.getfloat("alpha_cc", fallback=1.0 / 3.0),
            section.getfloat("alpha_b", fallback=1.0 / 3.0),
            section.getfloat("alpha_d", fallback=1.0 / 3.0),
        )
        max_post = section.getint("max_postponements", fallback=0) or None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg = AlgorithmConfig(
        name=name,
        alpha_cc=alphas[0],
        alpha_b=alphas[1],
        alpha_d=alphas[2],
        max_postponements=max_post,
    )
    cfg.utility_params()  # validate weights eagerly
    return cfg


def write_sample_configs(directory: str | Path) -> list[Path]:
    """Write the sample config set the paper ships with its artifact."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sys_path = directory / "sys-config.ini"
    sys_path.write_text(
        "[system]\n"
        "simulation = true\n"
        "machine = power8-minsky\n"
        "machines = 1\n"
        "scheduler_interval = 1.0\n"
    )
    out = [sys_path]
    for algo in ("fcfs", "bf", "topo-aware", "topo-aware-p"):
        p = directory / f"{algo}-config.ini"
        p.write_text(
            "[scheduler]\n"
            f"algorithm = {algo.upper()}\n"
            "alpha_cc = 0.3333333333\n"
            "alpha_b = 0.3333333333\n"
            "alpha_d = 0.3333333334\n"
        )
        out.append(p)
    return out
