"""Protocol constants for the DSRC control channel.

Everything below describes the 10 MHz IEEE 802.11p profile at the
mandatory 6 Mb/s OFDM rate. Each value below, apart from the EDCA
sets, is the default of a MacParams field, and the solvers read it
only through MacParams. A `solve-mac --params` record can set every
MacParams field. A scenario file reaches only the payload size and the
queue capacity (its [comm] keys payload_bytes and queue_capacity,
beside access for the access mode); the rest stay at these values.

Durations are seconds, frame sizes are bits. Control-frame sizes are
bit-equivalents at the data rate with PHY overhead folded in, because
the timing model charges every frame as bits / data_rate.
"""

SLOT_TIME = 13e-6           # s, aSlotTime for 10 MHz channels
SIFS_TIME = 32e-6           # s, aSIFSTime for 10 MHz channels
PROPAGATION_DELAY = 1e-6    # s, one-way air-propagation allowance
DATA_RATE = 6e6             # bit/s, mandatory rate on the control channel

AIFS_SLOTS = 6              # best-effort AIFSN
CW_MIN = 16                 # initial contention window w0 (draw in [0, w0-1])
CW_SCALING = 2              # window growth factor per retry
MAX_DOUBLINGS = 6           # retries that still grow the window (M)
EXTRA_RETRIES = 1           # further retries at the capped window (f)
QUEUE_CAPACITY = 64         # packets in system, head of line included (K)

ACK_BITS = 1760
RTS_BITS = 1840
CTS_BITS = 1760

PAYLOAD_BITS = 8000         # 1000-byte application payload

# EDCA parameter sets for the four-category comparison experiment.
# Contention windows are sizes (draw in [0, w0-1]), not CW register values.
# Priority order for internal-collision resolution: first entry wins.
EDCA_PARAMETER_SETS = {
    "ac_vo": {"aifs_slots": 2, "w0": 4, "m_stages": 1, "f_extra": 1},
    "ac_vi": {"aifs_slots": 3, "w0": 8, "m_stages": 1, "f_extra": 1},
    "ac_be": {"aifs_slots": AIFS_SLOTS, "w0": CW_MIN, "m_stages": MAX_DOUBLINGS,
              "f_extra": EXTRA_RETRIES},
    "ac_bk": {"aifs_slots": 9, "w0": CW_MIN, "m_stages": MAX_DOUBLINGS,
              "f_extra": EXTRA_RETRIES},
}
AC_PRIORITY = ("ac_vo", "ac_vi", "ac_be", "ac_bk")
