"""Cyclostationary RFI monitoring for simulated phased-array telescopes."""

__version__ = "0.1.0"

from .arraysim import (ArrayGeometry, ArraySnapshot, DirectionLM, Scene,
                       SourceSpec, TrajectorySpec, default_geometry,
                       steering_vector, synthesize)
from .cyclospec import (CyclicCorrMatrix, CyclicSpectrum,
                        corr_matrix, cyclic_corr_matrix, cyclic_spectrum,
                        detect_cyclic_freqs, fft_alpha_grid)
from .imaging import Skymap, SkymapGrid, cyclic_skymap, locate_peaks, skymap
from .signals import gen_bpsk, gen_cw, gen_noise
from .tracking import (Detection, RfiTrack, Tracker, TrackerConfig, classify,
                       predict)
from .scheduling import (ChannelGrid, FlagMask, Program, Schedule,
                         SchedulerConfig, SiteModel, corruption_risk,
                         flag_mask, schedule, target_position)
