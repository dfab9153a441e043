"""Scenario and training configuration with validated defaults and presets."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .physics import ChannelParams, LaserParams, PropulsionParams


class ConfigError(ValueError):
    """Invalid or inconsistent configuration; message names the offending key."""


@dataclass(frozen=True)
class RewardParams:
    """Weights and constants of the per-slot reward."""

    alpha_a: float = 1.0        # weight of the peak-AoI term
    beta_p: float = 0.5         # weight of the energy-penalty term
    gamma_s: float = 1.0        # weight of the collection-count term
    r_pen1: float = 0.01        # low-energy distance penalty rate
    r_pen2: float = 0.005       # full-energy distance penalty rate
    r_0: float = 0.1            # reward when energy is in the healthy band
    aoi_norm: float = 0.0       # AoI normalizer in slots; 0 -> horizon
    event_penalty: float = 1.0  # per collision/boundary-clip event, folded into r_p
    death_penalty: float = 10.0  # terminal penalty to an energy-depleted agent


@dataclass(frozen=True)
class ScenarioConfig:
    """Every physical, geometric, and reward constant of one scenario."""

    n_uavs: int = 4
    n_iots: int = 50
    n_lbds: int = 1
    area_half_side: float = 500.0     # square spans [-h, h]^2
    altitude: float = 80.0
    speed: float = 5.0                # commanded cruise speed, m/s
    slot_dt: float = 1.0              # seconds per slot
    horizon: int = 500                # slots per episode
    charge_radius: float = 250.0      # LBD charging disc radius
    flight_limit: float = 500.0       # flight disc radius (2x charge radius)
    e_full: float = 30000.0           # UAV battery capacity, J
    e_init_frac: float = 0.6
    e_charge_threshold: float = 9000.0   # divert-to-charge threshold, J
    e_iot_init: float = 1000.0
    e_iot_floor: float = 200.0
    data_volume: float = 1e6          # bits buffered per IoT generation
    comm_radius: float = 60.0
    collision_dist: float = 10.0
    obs_k_nearest: int = 5
    regenerate_on_collect: bool = True
    include_hover_action: bool = False
    rate_gated_collection: bool = False
    lbd_layout: str = "center"        # center | ring
    layout_file: str = ""             # optional scenario layout file path
    epsilon_energy: float = 1.0       # full-battery equality tolerance, J
    rng_seed: int = 0                 # IoT placement; set from the run seed
    channel: ChannelParams = field(default_factory=ChannelParams)
    laser: LaserParams = field(default_factory=LaserParams)
    propulsion: PropulsionParams = field(default_factory=PropulsionParams)
    reward: RewardParams = field(default_factory=RewardParams)

    @property
    def n_actions(self) -> int:
        return 9 if self.include_hover_action else 8

    @property
    def aoi_norm(self) -> float:
        return self.reward.aoi_norm if self.reward.aoi_norm > 0 else float(self.horizon)

    @property
    def obs_dim(self) -> int:
        return 3 + 4 * self.obs_k_nearest + 2

    @property
    def global_state_dim(self) -> int:
        return 3 * self.n_uavs + 2 * self.n_iots

    def validate(self) -> None:
        if self.n_uavs < 1:
            raise ConfigError("n_uavs must be >= 1")
        if self.n_iots < 1:
            raise ConfigError("n_iots must be >= 1")
        if self.n_lbds < 1:
            raise ConfigError("n_lbds must be >= 1")
        if self.flight_limit <= 0.0:
            raise ConfigError("flight_limit must be > 0")
        if self.charge_radius < 0.0:
            raise ConfigError("charge_radius must be >= 0")
        if self.charge_radius > self.flight_limit:
            raise ConfigError("charge_radius must not exceed flight_limit")
        if not 0.0 < self.e_init_frac <= 1.0:
            raise ConfigError("e_init_frac must be in (0, 1]")
        if self.e_full <= 0.0:
            raise ConfigError("e_full must be > 0")
        if self.e_charge_threshold >= self.e_full:
            raise ConfigError("e_charge_threshold must be below e_full")
        if self.comm_radius <= 0.0:
            raise ConfigError("comm_radius must be > 0")
        if self.obs_k_nearest < 1:
            raise ConfigError("obs_k_nearest must be >= 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.speed <= 0.0 or self.slot_dt <= 0.0:
            raise ConfigError("speed and slot_dt must be > 0")
        if self.area_half_side <= 0.0:
            raise ConfigError("area_half_side must be > 0")
        if self.altitude <= 0.0:
            raise ConfigError("altitude must be > 0")
        if self.reward.aoi_norm < 0.0:
            raise ConfigError("aoi_norm must be >= 0 (0 means the horizon)")
        if self.lbd_layout not in ("center", "ring"):
            raise ConfigError("lbd_layout must be 'center' or 'ring'")
        try:
            self.channel.validate()
            self.laser.validate()
            self.propulsion.validate()
        except ValueError as err:
            raise ConfigError(str(err)) from err


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the PPO training loop and network sizes."""

    episodes: int = 300
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    epochs: int = 4
    episodes_per_update: int = 1
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    learning_rate: float = 3e-4
    eval_interval: int = 50           # episodes between checkpoints
    algo: str = "mappo_lstm"            # mappo_lstm | mappo_ff
    hidden_size: int = 64
    head_hidden: int = 64
    critic_hidden1: int = 128
    critic_hidden2: int = 64
    clip_norm: float = 0.5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def validate(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must be in (0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ConfigError("gae_lambda must be in [0, 1]")
        if self.clip_epsilon <= 0.0:
            raise ConfigError("clip_epsilon must be > 0")
        if self.episodes < 1:
            raise ConfigError("episodes must be >= 1")
        if self.epochs < 1 or self.episodes_per_update < 1:
            raise ConfigError("epochs and episodes_per_update must be >= 1")
        if self.algo not in ("mappo_lstm", "mappo_ff"):
            raise ConfigError("algo must be 'mappo_lstm' or 'mappo_ff'")
        for key in ("hidden_size", "head_hidden", "critic_hidden1",
                    "critic_hidden2", "eval_interval"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be > 0")
        for key in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must be in [0, 1)")
        if self.adam_eps <= 0.0:
            raise ConfigError("adam_eps must be > 0")
        if self.clip_norm < 0.0:
            raise ConfigError("clip_norm must be >= 0 (0 disables clipping)")


def tiny_scenario(**overrides) -> ScenarioConfig:
    """Two UAVs, ten IoTs, short horizon; sized for minute-scale training."""
    base = ScenarioConfig(
        n_uavs=2,
        n_iots=10,
        n_lbds=1,
        area_half_side=60.0,
        speed=10.0,
        horizon=100,
        charge_radius=30.0,
        flight_limit=60.0,
        comm_radius=60.0,
        obs_k_nearest=10,
        include_hover_action=True,
    )
    return replace(base, **overrides)
