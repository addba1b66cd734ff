"""DPAx datapath constants, in a module that imports nothing.

The simulator (:mod:`repro.dpax`, which re-exports them) and the
engine-side checks -- the verifier, the numerical sentinels, the
interval analysis and the batcher -- all read these.  Keeping them
here lets the serving path load them without loading the simulator.
"""

#: Integer datapath rails (32-bit two's complement) and the 4-lane
#: SIMD sub-word rails -- shared with the guard's numerical sentinels
#: (:mod:`repro.guard.sentinels`) so overflow detection matches the
#: arithmetic that would actually wrap/saturate in hardware.
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1
LANE8_MIN = -(1 << 7)
LANE8_MAX = (1 << 7) - 1

#: Register-file entries per PE (Table 4); the default bound programs
#: are checked against when no explicit PE configuration is in play.
DEFAULT_RF_SIZE = 64

#: Figure 4's tile composition: integer PE arrays per DPAx tile (the
#: engine's batch capacity mirrors it).
INTEGER_ARRAYS = 16
