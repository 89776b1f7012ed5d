"""The benchmark's workloads: one scarsim CLI invocation each, on a
generated INI config.  The program sees only that INI and the argv.

Why each workload exists, and which layer it should stress, is recorded
in README.md beside this file.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str           # scarsim subcommand
    sites: int
    steps: int
    twirls: int
    shots: int
    shots_per_trajectory: int
    default_seed: int
    zne_factors: tuple[float, ...] = (1.0, 1.5, 2.0)

    def variants(self) -> int:
        """Variants the run must complete: step points x twirls x scales,
        and for cy also x sources x branches x parities."""
        n = (self.steps + 1) * self.twirls * len(self.zne_factors)
        if self.command == "cy":
            n *= (self.sites // 2) * 4 * 2
        return n

    def ini(self, seed: int, twin: bool = False) -> str:
        """The config for ``seed``.  ``twin`` gives the noiseless,
        infinite-shot version of the same shape, used by the oracle check."""
        factors = ", ".join(str(f) for f in self.zne_factors)
        return "\n".join([
            "[model]",
            f"sites = {self.sites}",
            f"steps = {self.steps}",
            "[execution]",
            "impl = scaled-rzx",
            f"shots = {self.shots}",
            f"infinite_shots = {'true' if twin else 'false'}",
            f"shots_per_trajectory = {self.shots_per_trajectory}",
            f"seed = {seed}",
            "[noise]",
            f"preset = {'noiseless' if twin else 'casablanca-like'}",
            "[mitigation]",
            f"twirls = {self.twirls}",
            f"zne_factors = {factors}",
            "readout_mode = tensor",
            "postselect = true",
            "dd = false",
            "[output]",
            "out = out",
            "format = csv",
            "",
        ])


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance 10 scaled down: deep 4096-amplitude circuits; every
        # step re-simulates its whole prefix, so trajectory evolution leads.
        Workload("zpi-deep", "zpi", sites=12, steps=10, twirls=2, shots=8192,
                 shots_per_trajectory=2048, default_seed=202),
        # The README's cy command at half the steps and twirls: hundreds of
        # tiny 32-amplitude variants, dominated by per-gate Python overhead.
        Workload("cy-desk", "cy", sites=5, steps=6, twirls=2, shots=4096,
                 shots_per_trajectory=1024, default_seed=3),
    )
}
