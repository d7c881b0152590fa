"""The standard noise-channel menagerie.

Unitary mixtures (state-independent probabilities — Algorithm 1's fast
path): depolarizing, bit/phase flip, general Pauli channels, two-qubit
depolarizing.  Genuinely non-unitary channels (exercising the
state-dependent branch): amplitude damping, generalized amplitude damping,
phase damping (equivalent to a phase flip but expressed in non-unitary
Kraus form here, deliberately, to test the general path), and reset.

On top of the individual channels, this module keeps the **named
device-noise profile registry** the scenario sweep harness
(:mod:`repro.sweep`) references: each :class:`DeviceNoiseProfile` is a
calibrated preset (per-wire 1q/2q depolarizing rates, SPAM flip rates,
optionally T1 amplitude damping) that expands into a full
:class:`~repro.channels.noise_model.NoiseModel` bound to every standard
gate name — the qsimbench-style "device noise profile" sweep axis.
Profiles whose channels are all unitary mixtures advertise it
(:attr:`DeviceNoiseProfile.unitary_mixture_only`, listed by
``python -m repro.sweep --list``): there the nominal trajectory
probabilities are exact, elsewhere only priors of the realized weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.channels.kraus import KrausChannel
from repro.channels.pauli import pauli_string_matrix
from repro.errors import ChannelError

__all__ = [
    "depolarizing",
    "two_qubit_depolarizing",
    "bit_flip",
    "phase_flip",
    "pauli_channel",
    "amplitude_damping",
    "generalized_amplitude_damping",
    "phase_damping",
    "reset_channel",
    "DeviceNoiseProfile",
    "register_profile",
    "device_profile",
    "profile_names",
    "NOISY_ONE_QUBIT_GATES",
    "NOISY_TWO_QUBIT_GATES",
]

_I = np.eye(2, dtype=np.complex128)
_X = pauli_string_matrix("X")
_Y = pauli_string_matrix("Y")
_Z = pauli_string_matrix("Z")


def _check_prob(p: float, name: str, upper: float = 1.0) -> float:
    if not (0.0 <= p <= upper):
        raise ChannelError(f"{name}: probability {p} outside [0, {upper}]")
    return float(p)


def depolarizing(p: float) -> KrausChannel:
    """Single-qubit depolarizing channel.

    With probability ``p`` one of X, Y, Z is applied uniformly (the paper's
    canonical example of a unitary mixture of Pauli unitaries).
    """
    _check_prob(p, "depolarizing")
    ops = [math.sqrt(1 - p) * _I] if p < 1 else []
    if p > 0:
        ops += [math.sqrt(p / 3) * P for P in (_X, _Y, _Z)]
    return KrausChannel(f"depolarizing({p:g})", ops, check=False)


def two_qubit_depolarizing(p: float) -> KrausChannel:
    """Two-qubit depolarizing: uniform over the 15 non-identity Paulis."""
    _check_prob(p, "two_qubit_depolarizing")
    from repro.channels.pauli import all_pauli_labels

    labels = [lab for lab in all_pauli_labels(2) if lab != "II"]
    ops = [math.sqrt(1 - p) * np.eye(4, dtype=np.complex128)] if p < 1 else []
    if p > 0:
        ops += [math.sqrt(p / 15) * pauli_string_matrix(lab) for lab in labels]
    return KrausChannel(f"depolarizing2({p:g})", ops, check=False)


def bit_flip(p: float) -> KrausChannel:
    """X with probability ``p``."""
    _check_prob(p, "bit_flip")
    ops = [math.sqrt(1 - p) * _I] if p < 1 else []
    if p > 0:
        ops.append(math.sqrt(p) * _X)
    return KrausChannel(f"bit_flip({p:g})", ops, check=False)


def phase_flip(p: float) -> KrausChannel:
    """Z with probability ``p``."""
    _check_prob(p, "phase_flip")
    ops = [math.sqrt(1 - p) * _I] if p < 1 else []
    if p > 0:
        ops.append(math.sqrt(p) * _Z)
    return KrausChannel(f"phase_flip({p:g})", ops, check=False)


def pauli_channel(px: float, py: float, pz: float) -> KrausChannel:
    """General single-qubit Pauli channel with independent X/Y/Z rates."""
    for v, nm in ((px, "px"), (py, "py"), (pz, "pz")):
        _check_prob(v, f"pauli_channel {nm}")
    p0 = 1.0 - px - py - pz
    if p0 < -1e-12:
        raise ChannelError(f"pauli_channel: rates sum to {px+py+pz} > 1")
    p0 = max(p0, 0.0)
    ops = []
    for prob, mat in ((p0, _I), (px, _X), (py, _Y), (pz, _Z)):
        if prob > 0:
            ops.append(math.sqrt(prob) * mat)
    return KrausChannel(f"pauli({px:g},{py:g},{pz:g})", ops, check=False)


def amplitude_damping(gamma: float) -> KrausChannel:
    """T1 decay: |1> relaxes to |0> with probability ``gamma``.

    *Not* a unitary mixture — exercises the state-dependent trajectory
    branch of paper Algorithm 1.
    """
    _check_prob(gamma, "amplitude_damping")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=np.complex128)
    return KrausChannel(f"amp_damp({gamma:g})", [k0, k1], check=False)


def generalized_amplitude_damping(gamma: float, p_excited: float) -> KrausChannel:
    """Finite-temperature T1: decay toward a thermal mixture."""
    _check_prob(gamma, "generalized_amplitude_damping gamma")
    _check_prob(p_excited, "generalized_amplitude_damping p_excited")
    pg = 1.0 - p_excited
    k0 = math.sqrt(pg) * np.array([[1, 0], [0, math.sqrt(1 - gamma)]])
    k1 = math.sqrt(pg) * np.array([[0, math.sqrt(gamma)], [0, 0]])
    k2 = math.sqrt(p_excited) * np.array([[math.sqrt(1 - gamma), 0], [0, 1]])
    k3 = math.sqrt(p_excited) * np.array([[0, 0], [math.sqrt(gamma), 0]])
    ops = [k for k in (k0, k1, k2, k3) if np.any(np.abs(k) > 0)]
    return KrausChannel(f"gad({gamma:g},{p_excited:g})", ops, check=False)


def phase_damping(lam: float) -> KrausChannel:
    """Pure dephasing in explicitly non-unitary Kraus form.

    Physically equivalent to ``phase_flip((1 - sqrt(1-lam))/2)`` but the
    Kraus operators here are *not* scaled unitaries, so unitary-mixture
    detection correctly rejects it — used to test that code path.
    """
    _check_prob(lam, "phase_damping")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=np.complex128)
    k1 = np.array([[0, 0], [0, math.sqrt(lam)]], dtype=np.complex128)
    return KrausChannel(f"phase_damp({lam:g})", [k0, k1], check=False)


def reset_channel(p: float) -> KrausChannel:
    """With probability ``p`` the qubit is reset to |0>."""
    _check_prob(p, "reset_channel")
    sq = math.sqrt(p)
    k0 = math.sqrt(1 - p) * _I
    k1 = sq * np.array([[1, 0], [0, 0]], dtype=np.complex128)
    k2 = sq * np.array([[0, 1], [0, 0]], dtype=np.complex128)
    ops = [k0, k1, k2] if p > 0 else [k0]
    return KrausChannel(f"reset({p:g})", ops, check=False)


# --------------------------------------------------------------------------- #
# named device-noise profiles (the sweep harness's "device" axis)
# --------------------------------------------------------------------------- #

#: Gate names a profile binds its single-qubit channels to — every 1q gate
#: the workload library emits.
NOISY_ONE_QUBIT_GATES: Tuple[str, ...] = ("h", "x", "s", "t", "rx", "ry", "rz")

#: Gate names a profile binds its two-qubit channels to.
NOISY_TWO_QUBIT_GATES: Tuple[str, ...] = ("cx", "cz", "swap")


@dataclass(frozen=True)
class DeviceNoiseProfile:
    """A calibrated, named device noise preset.

    ``p1``/``p2`` are per-gate depolarizing rates (1q per wire, 2q on the
    full pair), ``p_prep``/``p_meas`` are SPAM bit-flip rates, and
    ``gamma1`` is an optional per-1q-gate amplitude-damping rate — setting
    it makes the profile *general* (non-unitary-mixture): nominal
    trajectory probabilities become priors rather than exact weights, and
    only realized weights estimate the distribution.
    """

    name: str
    p1: float
    p2: float
    p_prep: float = 0.0
    p_meas: float = 0.0
    gamma1: float = 0.0
    description: str = ""

    @property
    def unitary_mixture_only(self) -> bool:
        """True when every bound channel is a unitary mixture.

        Depolarizing and bit-flip channels are mixtures of scaled
        unitaries (state-independent branch probabilities, paper §2.2);
        amplitude damping is not.
        """
        return self.gamma1 == 0.0

    def noise_model(self):
        """Expand the preset into a :class:`~repro.channels.noise_model.NoiseModel`."""
        from repro.channels.noise_model import NoiseModel

        model = NoiseModel(name=self.name)
        if self.p1 > 0:
            for gate in NOISY_ONE_QUBIT_GATES:
                model.add_all_qubit_gate_noise(gate, depolarizing(self.p1))
        if self.p2 > 0:
            for gate in NOISY_TWO_QUBIT_GATES:
                model.add_all_qubit_gate_noise(gate, two_qubit_depolarizing(self.p2))
        if self.gamma1 > 0:
            for gate in NOISY_ONE_QUBIT_GATES:
                model.add_all_qubit_gate_noise(gate, amplitude_damping(self.gamma1))
        if self.p_prep > 0:
            model.add_preparation_noise(bit_flip(self.p_prep))
        if self.p_meas > 0:
            model.add_measurement_noise(bit_flip(self.p_meas))
        return model


_PROFILES: Dict[str, DeviceNoiseProfile] = {}


def register_profile(profile: DeviceNoiseProfile) -> DeviceNoiseProfile:
    """Add a profile to the registry (rejects duplicate names)."""
    if profile.name in _PROFILES:
        raise ChannelError(f"noise profile {profile.name!r} already registered")
    for value, nm in (
        (profile.p1, "p1"),
        (profile.p2, "p2"),
        (profile.p_prep, "p_prep"),
        (profile.p_meas, "p_meas"),
        (profile.gamma1, "gamma1"),
    ):
        _check_prob(value, f"profile {profile.name!r} {nm}")
    _PROFILES[profile.name] = profile
    return profile


def profile_names() -> List[str]:
    """Registered profile names, in registration order."""
    return list(_PROFILES)


def device_profile(name: str) -> DeviceNoiseProfile:
    if name not in _PROFILES:
        known = ", ".join(repr(n) for n in _PROFILES)
        raise ChannelError(f"unknown noise profile {name!r}; registered: {known}")
    return _PROFILES[name]


# Calibrated presets: rates chosen around published device medians so the
# sweep's noise axis spans realistic regimes (light ion-trap noise up to a
# stress-test heavy profile) plus one genuinely non-unitary profile that
# exercises the state-dependent trajectory branch.
register_profile(
    DeviceNoiseProfile(
        name="uniform_depolarizing",
        p1=2e-3,
        p2=1.5e-2,
        p_prep=2e-3,
        p_meas=1e-2,
        description="Generic depolarizing + SPAM flips (mid-range rates)",
    )
)
register_profile(
    DeviceNoiseProfile(
        name="superconducting_median",
        p1=8e-4,
        p2=7e-3,
        p_prep=1.5e-3,
        p_meas=1.8e-2,
        description="Transmon-like medians: fast gates, lossy readout",
    )
)
register_profile(
    DeviceNoiseProfile(
        name="trapped_ion_median",
        p1=2e-4,
        p2=5e-3,
        p_prep=1e-3,
        p_meas=3e-3,
        description="Ion-trap-like medians: high-fidelity 1q, clean readout",
    )
)
register_profile(
    DeviceNoiseProfile(
        name="heavy_depolarizing",
        p1=8e-3,
        p2=4e-2,
        p_prep=5e-3,
        p_meas=2e-2,
        description="Stress profile: error rates ~5x superconducting medians",
    )
)
register_profile(
    DeviceNoiseProfile(
        name="relaxation_dominated",
        p1=5e-4,
        p2=8e-3,
        p_prep=1e-3,
        p_meas=1e-2,
        gamma1=8e-3,
        description="T1-dominated: amplitude damping per 1q gate (non-unitary)",
    )
)
