"""Protocol constants for the DSRC control channel.

Everything below describes the 10 MHz IEEE 802.11p profile at the
mandatory 6 Mb/s OFDM rate, in two groups.

The channel profile (the slot, SIFS, propagation allowance, data rate
and control-frame sizes) is fixed: the solver and the event simulator
read these constants directly, and no input sets them. Control-frame
sizes are bit-equivalents at DATA_RATE with the PHY overhead folded in,
because the timing model charges every frame as bits / DATA_RATE; so
moving the rate, slot or SIFS alone would describe no 802.11p channel.
The contention window doubles at each retry stage, 802.11's binary
exponential back-off, with no base to set.

The rest are the defaults of MacParams fields, which a caller can vary:
the contention window w0, the doublings and capped retries, the AIFS,
the queue capacity and the payload (the EDCA sets below vary the first
four). A `solve-mac --params` record sets any MacParams field, and
refuses a name that is not one. A scenario file reaches only the
payload size and the queue capacity (its [comm] keys payload_bytes and
queue_capacity, beside access for the access mode).

Durations are seconds, frame sizes are bits.
"""

# the fixed channel profile
SLOT_TIME = 13e-6           # s, aSlotTime for 10 MHz channels
SIFS_TIME = 32e-6           # s, aSIFSTime for 10 MHz channels
PROPAGATION_DELAY = 1e-6    # s, one-way air-propagation allowance
DATA_RATE = 6e6             # bit/s, mandatory rate on the control channel
ACK_BITS = 1760
RTS_BITS = 1840
CTS_BITS = 1760

# MacParams defaults
AIFS_SLOTS = 6              # best-effort AIFSN
CW_MIN = 16                 # initial contention window w0 (draw in [0, w0-1])
MAX_DOUBLINGS = 6           # retries that still double the window (M)
EXTRA_RETRIES = 1           # further retries at the capped window (f)
QUEUE_CAPACITY = 64         # packets in system, head of line included (K)
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
