"""AES — byte-oriented AES-128 encryption rounds (the CHStone ``aes`` kernel).

Encrypts two 16-byte blocks with the real AES S-box, ShiftRows, a
GF(2^8) MixColumns and AddRoundKey over a fixed expanded-key schedule
(key expansion itself is done with the same S-box).  Reduced to four rounds
so the dynamic trace stays small; the transformation structure (table
lookups feeding xor trees inside nested loops) matches the original.
"""

from __future__ import annotations

from typing import List

from repro.workloads.base import Workload, WorkloadRegistry


def _build_sbox() -> List[int]:
    """Standard AES S-box, computed (multiplicative inverse + affine map).

    Inverses come from log/antilog tables over the generator 3: every
    non-zero x is 3^k for one k, and its inverse is 3^(255 - k).
    """
    antilog = [0] * 255
    log = [0] * 256
    x = 1
    for k in range(255):
        antilog[k] = x
        log[x] = k
        # x * 3 = xtime(x) ^ x
        x ^= ((x << 1) ^ (0x1B if x & 0x80 else 0)) & 0xFF
    inv = [0] + [antilog[(255 - log[x]) % 255] for x in range(1, 256)]
    sbox = []
    for x in range(256):
        b = inv[x]
        s = b
        for _ in range(4):
            b = ((b << 1) | (b >> 7)) & 0xFF
            s ^= b
        sbox.append(s ^ 0x63)
    return sbox


_SBOX = _build_sbox()
_ROUNDS = 4
_NUM_BLOCKS = 2
_KEY = [0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C]
_PLAINTEXT = [(i * 17 + b * 31 + 3) % 256 for b in range(_NUM_BLOCKS) for i in range(16)]

_SBOX_INIT = "{" + ", ".join(str(v) for v in _SBOX) + "}"
_KEY_INIT = "{" + ", ".join(str(v) for v in _KEY) + "}"
_PT_INIT = "{" + ", ".join(str(v) for v in _PLAINTEXT) + "}"

SOURCE = f"""
/* AES-128 rounds over two blocks (CHStone `aes` analogue, 4 rounds). */
#define ROUNDS {_ROUNDS}
#define NUM_BLOCKS {_NUM_BLOCKS}

int sbox[256] = {_SBOX_INIT};
int key[16] = {_KEY_INIT};
int input[NUM_BLOCKS * 16] = {_PT_INIT};
int state[16];
int round_key[16];
int output[NUM_BLOCKS * 16];

int xtime(int a) {{
  int r = (a << 1) & 255;
  if (a & 128) {{ r = r ^ 27; }}
  return r;
}}

void next_round_key(int round) {{
  int temp0 = round_key[13];
  int temp1 = round_key[14];
  int temp2 = round_key[15];
  int temp3 = round_key[12];
  int rcon = 1;
  int i;
  for (i = 0; i < round; i++) {{ rcon = xtime(rcon); }}
  round_key[0] = round_key[0] ^ sbox[temp0] ^ rcon;
  round_key[1] = round_key[1] ^ sbox[temp1];
  round_key[2] = round_key[2] ^ sbox[temp2];
  round_key[3] = round_key[3] ^ sbox[temp3];
  for (i = 4; i < 16; i++) {{
    round_key[i] = round_key[i] ^ round_key[i - 4];
  }}
}}

void sub_and_shift(void) {{
  int tmp[16];
  int row;
  int col;
  for (row = 0; row < 4; row++) {{
    for (col = 0; col < 4; col++) {{
      tmp[row + 4 * col] = sbox[state[row + 4 * ((col + row) % 4)]];
    }}
  }}
  for (row = 0; row < 16; row++) {{ state[row] = tmp[row]; }}
}}

void mix_columns(void) {{
  int col;
  for (col = 0; col < 4; col++) {{
    int a0 = state[4 * col];
    int a1 = state[4 * col + 1];
    int a2 = state[4 * col + 2];
    int a3 = state[4 * col + 3];
    state[4 * col]     = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
    state[4 * col + 1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
    state[4 * col + 2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
    state[4 * col + 3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
  }}
}}

void add_round_key(void) {{
  int i;
  for (i = 0; i < 16; i++) {{ state[i] = (state[i] ^ round_key[i]) & 255; }}
}}

int main(void) {{
  int block;
  int i;
  int round;
  int checksum = 0;
  for (block = 0; block < NUM_BLOCKS; block++) {{
    for (i = 0; i < 16; i++) {{ state[i] = input[block * 16 + i]; }}
    for (i = 0; i < 16; i++) {{ round_key[i] = key[i]; }}
    add_round_key();
    for (round = 0; round < ROUNDS; round++) {{
      sub_and_shift();
      if (round < ROUNDS - 1) {{ mix_columns(); }}
      next_round_key(round);
      add_round_key();
    }}
    for (i = 0; i < 16; i++) {{
      output[block * 16 + i] = state[i];
      checksum = (checksum * 31 + state[i]) & 16777215;
      print_int(state[i]);
    }}
  }}
  print_int(checksum);
  return checksum;
}}
"""


def reference() -> List[int]:
    def xtime(a: int) -> int:
        r = (a << 1) & 255
        if a & 128:
            r ^= 27
        return r

    outputs: List[int] = []
    checksum = 0
    for block in range(_NUM_BLOCKS):
        state = [_PLAINTEXT[block * 16 + i] for i in range(16)]
        round_key = list(_KEY)
        state = [(s ^ k) & 255 for s, k in zip(state, round_key)]
        for rnd in range(_ROUNDS):
            tmp = [0] * 16
            for row in range(4):
                for col in range(4):
                    tmp[row + 4 * col] = _SBOX[state[row + 4 * ((col + row) % 4)]]
            state = tmp
            if rnd < _ROUNDS - 1:
                for col in range(4):
                    a0, a1, a2, a3 = state[4 * col : 4 * col + 4]
                    state[4 * col] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
                    state[4 * col + 1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
                    state[4 * col + 2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
                    state[4 * col + 3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
            # next round key
            t = [round_key[13], round_key[14], round_key[15], round_key[12]]
            rcon = 1
            for _ in range(rnd):
                rcon = xtime(rcon)
            round_key[0] ^= _SBOX[t[0]] ^ rcon
            round_key[1] ^= _SBOX[t[1]]
            round_key[2] ^= _SBOX[t[2]]
            round_key[3] ^= _SBOX[t[3]]
            for i in range(4, 16):
                round_key[i] ^= round_key[i - 4]
            state = [(s ^ k) & 255 for s, k in zip(state, round_key)]
        for value in state:
            outputs.append(value)
            checksum = (checksum * 31 + value) & 16777215
    outputs.append(checksum)
    return outputs


WORKLOAD = WorkloadRegistry.register(
    Workload(
        name="aes",
        description="AES-128 encryption rounds over two blocks",
        source=SOURCE,
        reference=reference,
        chstone_name="AES",
        paper_queues=100,
        paper_semaphores=0,
        paper_hw_threads=3,
    )
)
