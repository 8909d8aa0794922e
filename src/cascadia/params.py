"""Core domain types: normalized parameters, derived quantities, chains,
and the model table (`left_channel`) that every solver layer reads.

Units: Γ_tot = 1 and v_g = 1 throughout.  All rates (Γ₁D, γ, Ω, Δ, ξ_Δ)
are in units of Γ_tot, positions in units of λ, times in units of 1/Γ_tot.
The coupling fraction per direction is β = Γ₁D/2, so β ∈ [0, 1/2].
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

_GAMMA_TOT_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of a driven emitter chain.

    gamma_1d    Γ₁D, decay into the guided mode (both directions combined)
    gamma_loss  γ, decay into unguided modes; gamma_1d + gamma_loss = 1
    rabi        Ω, coherent drive amplitude
    detuning    Δ, laser detuning from the emitter transition
    n_emitters  N
    eta         η, spacing disorder (std-dev of the spacing in units of λ/2)
    k0_spacing  mean spacing in units of λ/2 (1 = Bragg condition)
    seed        64-bit master seed for chain generation
    """

    gamma_1d: float
    gamma_loss: float
    rabi: float
    n_emitters: int
    eta: float = 0.0
    detuning: float = 0.0
    k0_spacing: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (self.gamma_1d >= 0.0 and self.gamma_loss >= 0.0):
            raise ValueError("decay rates must be non-negative")
        if abs(self.gamma_1d + self.gamma_loss - 1.0) > _GAMMA_TOT_TOL:
            raise ValueError(
                f"gamma_1d + gamma_loss = {self.gamma_1d + self.gamma_loss!r}"
                " but rates are normalized to Γ_tot = 1"
            )
        if self.eta < 0.0:
            raise ValueError("eta must be >= 0")
        if int(self.n_emitters) != self.n_emitters or self.n_emitters < 1:
            raise ValueError("n_emitters must be a positive integer")
        object.__setattr__(self, "n_emitters", int(self.n_emitters))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def beta(self) -> float:
        """β = Γ₁D/(2Γ_tot) ∈ [0, 1/2]."""
        return self.gamma_1d / 2.0

    @classmethod
    def from_beta(cls, beta: float, s0: float, n_emitters: int, **kw) -> "ModelParams":
        """Convenience constructor from (β, s₀) with Ω = √(s₀/2)."""
        if not 0.0 <= beta <= 0.5:
            raise ValueError("beta must lie in [0, 1/2]")
        if s0 < 0.0:
            raise ValueError("s0 must be >= 0")
        return cls(gamma_1d=2.0 * beta, gamma_loss=1.0 - 2.0 * beta,
                   rabi=math.sqrt(s0 / 2.0), n_emitters=n_emitters, **kw)

    def derive(self) -> "DerivedQuantities":
        return derive(self)

    # --- strict flat-JSON (de)serialization -------------------------------

    def to_json(self) -> str:
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        """Parse a flat JSON object. Unknown keys are an error (strict mode)."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("expected a flat JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        required = {f.name for f in fields(cls) if f.default is MISSING}
        missing = required - set(data)
        if missing:
            raise ValueError(f"missing parameter keys: {sorted(missing)}")
        return cls(**data)


@dataclass(frozen=True)
class DerivedQuantities:
    """Dimensionless control parameters derived from ModelParams.

    d_total = D_N = 4βN, s0 = 2Ω², s_tilde = s₀/D_N.
    """

    beta: float
    d_total: float
    s0: float
    s_tilde: float


def derive(params: ModelParams) -> DerivedQuantities:
    beta = params.beta
    d_total = 4.0 * beta * params.n_emitters
    s0 = 2.0 * params.rabi ** 2
    if d_total > 0.0:
        s_tilde = s0 / d_total
    else:
        s_tilde = math.inf if s0 > 0.0 else math.nan
    return DerivedQuantities(beta=beta, d_total=d_total, s0=s0, s_tilde=s_tilde)


@dataclass(frozen=True)
class EmitterChain:
    """A chain realization: positions z_i (units of λ) and detunings Δ_i.

    Site 1 is the leftmost / most-upstream emitter.  Positions enter the
    dynamics only through relative phases 2k₀(z_j − z_i) (spiral gauge),
    so the z₁ = 0 origin is a pure convention.
    """

    positions: np.ndarray
    detunings: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        det = np.asarray(self.detunings, dtype=float)
        if pos.ndim != 1 or det.shape != pos.shape:
            raise ValueError("positions and detunings must be equal-length 1D arrays")
        pos.setflags(write=False)
        det.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "detunings", det)

    def __len__(self) -> int:
        return self.positions.size


def _rng(seed: int, stream: int) -> np.random.Generator:
    # (seed, stream) keyed streams: independent, reproducible, parallel-safe
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream))))


def build_chain(params: ModelParams, stream: int = 0,
                xi_delta: float = 0.0) -> EmitterChain:
    """Draw one chain realization.

    Spacings Z_j = z_{j+1} − z_j are i.i.d. Gaussian with mean (λ/2)·k0_spacing
    and std-dev (λ/2)·η.  The Gaussian tail may produce Z_j < 0 for large η;
    index order is kept regardless (site j stays upstream of j+1), since only
    relative phases matter.  With xi_delta > 0, per-site detunings are drawn
    i.i.d. N(0, ξ_Δ²) after the spacings (fixed draw order for determinism).
    """
    n = params.n_emitters
    rng = _rng(params.seed, stream)
    # N(μ, 0) draws return μ exactly, so η = 0 yields the exact Bragg lattice
    spacings = rng.normal(0.5 * params.k0_spacing, 0.5 * params.eta, size=n - 1)
    positions = np.concatenate(([0.0], np.cumsum(spacings)))
    if xi_delta > 0.0:
        detunings = rng.normal(0.0, xi_delta, size=n)
    else:
        detunings = np.zeros(n)
    if params.detuning != 0.0:
        detunings = detunings + params.detuning
    return EmitterChain(positions=positions, detunings=detunings)


def averaged_phase_factor(eta: float, hop: int) -> float:
    """Ensemble average of the backward phase e^{2ik₀(z_{i+hop} − z_i)}.

    For Gaussian spacings the average is real: e^{−2(ηπ)²·hop}.  This is the
    attenuation the EAM applies to backward (downstream → upstream) coupling.
    """
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    return float(np.exp(-2.0 * (eta * np.pi) ** 2 * hop))


def spiral_phases(chain: EmitterChain) -> np.ndarray:
    """u_j = e^{2ik₀z_j}, the spiral-gauge phase of site j's backward
    (left-going) emission; BWM backward pair weights are u_j ū_i."""
    # 2k₀z mod 2π via z mod λ/2: keeps Bragg phases exactly 1
    return np.exp(4j * np.pi * np.mod(chain.positions, 0.5))


MODEL_TAGS = ("BWM", "EAM", "DM", "UWM")


def left_channel(model_tag: str, params: ModelParams,
                 chain: EmitterChain | None) -> tuple | None:
    """The left-going channel of a model, the one place the four differ.

    Returns the triple (c, v, w) of the backward suffix sum
    B_{i−1} = c (B_i + v_i m_i), B_N = 0, which site i reads as w_i B_i:
    site i hears site j > i with weight w_i c^{j−i} v_j.

        BWM  (1, u, ū), u_j = e^{2ik₀z_j}: the chain's exact phases
        EAM  (r, 1, 1), r = e^{−2(ηπ)²}: their ensemble average
        DM   (1, 1, 1): the Bragg limit
        UWM  None: no left-going channel (the cascaded limit)

    Refuses an unknown tag, a chain whose length is not n_emitters, a BWM
    without its chain, and an EAM or DM off the Bragg lattice (a mean
    spacing k0_spacing that is not a whole number of λ/2, where the
    backward phases would not average to the real c above).
    """
    if model_tag not in MODEL_TAGS:
        raise ValueError(f"unknown model tag {model_tag!r}")
    if chain is not None and len(chain) != params.n_emitters:
        raise ValueError(f"chain length {len(chain)} does not match "
                         f"n_emitters = {params.n_emitters}")
    if model_tag in ("EAM", "DM") and \
            not float(params.k0_spacing).is_integer():
        raise ValueError(f"{model_tag} is a Bragg-lattice limit: k0_spacing "
                         f"= {params.k0_spacing!r} must be a whole number")
    if model_tag == "UWM":
        return None
    if model_tag == "EAM":
        return averaged_phase_factor(params.eta, 1), 1.0, 1.0
    if model_tag == "DM":
        return 1.0, 1.0, 1.0
    if chain is None:
        raise ValueError("BWM phases require the chain")
    u = spiral_phases(chain)
    return 1.0, u, np.conj(u)


def site_detunings(params: ModelParams,
                   chain: EmitterChain | None) -> np.ndarray | None:
    """Δ_i per site: the chain's if any is nonzero, else Δ everywhere, else
    None (resonant)."""
    if chain is not None and np.any(chain.detunings != 0.0):
        return chain.detunings
    if params.detuning != 0.0:
        return np.full(params.n_emitters, params.detuning)
    return None


def output_saturations(model_tag: str, params: ModelParams,
                       chain: EmitterChain | None,
                       sigma_minus: np.ndarray) -> tuple[float, float]:
    """Coherent output saturations (s_right, s_left), s = 8|α_out|²/Γ_tot².

    Input–output relations in the spiral gauge (forward phases absorbed):
        α_out^R = Ω/2 − i(Γ₁D/2) Σ_j ⟨σ⁻_j⟩
        α_out^L = −i(Γ₁D/2) Σ_j c^{j−1} v_j w_1 ⟨σ⁻_j⟩
    at the chain head, with (c, v, w) the model's `left_channel`; the UWM
    has no left output.  An empty chain returns s₀ on the right.
    """
    m = sigma_minus
    g = params.gamma_1d / 2.0
    channel = left_channel(model_tag, params, chain)
    a_right = 0.5 * params.rabi - 1j * g * np.sum(m)
    s_left = 0.0
    if channel is not None:
        c, v, w = channel
        head = c ** np.arange(params.n_emitters) * v * np.ravel(w)[0]
        s_left = float(8.0 * np.abs(-1j * g * np.sum(head * m)) ** 2)
    return float(8.0 * np.abs(a_right) ** 2), s_left
