#include "textflag.h"

// func hasCLMUL() bool
TEXT ·hasCLMUL(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x00080202, CX        // PCLMULQDQ (bit 1), SSSE3 (bit 9), SSE4.1 (bit 19)
	CMPL  CX, $0x00080202
	SETEQ ret+0(FP)
	RET

// func hasWideCLMUL() bool
TEXT ·hasWideCLMUL(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JCS  no                      // no leaf 7
	MOVL $1, AX
	CPUID
	BTL  $27, CX                 // OSXSAVE
	JCC  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x00010020, BX         // AVX2 (bit 5), AVX512F (bit 16)
	CMPL BX, $0x00010020
	JNE  no
	BTL  $10, CX                 // VPCLMULQDQ
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX               // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	CMPL AX, $0xe6
	JNE  no
	MOVB $1, ret+0(FP)

no:
	RET

// tailShuf<> holds the PSHUFB masks of the last partial block: 16 bytes
// at n, n in 1..15, move a register's first n bytes to its top, and at
// n+16 its last 16-n bytes to its bottom. A byte with the top bit set
// makes PSHUFB write zero.
DATA tailShuf<>+0(SB)/8, $0x8080808080808080
DATA tailShuf<>+8(SB)/8, $0x8080808080808080
DATA tailShuf<>+16(SB)/8, $0x0706050403020100
DATA tailShuf<>+24(SB)/8, $0x0f0e0d0c0b0a0908
DATA tailShuf<>+32(SB)/8, $0x8080808080808080
DATA tailShuf<>+40(SB)/8, $0x8080808080808080
GLOBL tailShuf<>(SB), RODATA|NOPTR, $48

// func foldCLMUL(crc uint32, p []byte, k *foldConsts) uint32
//
// The 128-bit loop and the Barrett reduction are hash/crc32's ieeeCLMUL
// (crc32_amd64.s) on the pure reflected state, with the constants read
// from k (see foldConsts for the offsets).
TEXT ·foldCLMUL(SB), NOSPLIT, $0-44
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ k+32(FP), AX
	CMPQ CX, $64
	JB   short
	CMPB ·foldWide(SB), $0
	JNE  wide

	MOVL  crc+0(FP), X0
	MOVOU (SI), X1
	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	PXOR  X0, X1
	ADDQ  $64, SI
	SUBQ  $64, CX
	CMPQ  CX, $64                // fewer than 64 bytes left
	JB    remain64

	MOVOU 48(AX), X0             // k64

loop64:
	MOVOA X1, X5
	MOVOA X2, X6
	MOVOA X3, X7
	MOVOA X4, X8

	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0, X0, X2
	PCLMULQDQ $0, X0, X3
	PCLMULQDQ $0, X0, X4

	// Load the next 64 bytes early.
	MOVOU (SI), X11
	MOVOU 16(SI), X12
	MOVOU 32(SI), X13
	MOVOU 48(SI), X14

	PCLMULQDQ $0x11, X0, X5
	PCLMULQDQ $0x11, X0, X6
	PCLMULQDQ $0x11, X0, X7
	PCLMULQDQ $0x11, X0, X8

	PXOR X5, X1
	PXOR X6, X2
	PXOR X7, X3
	PXOR X8, X4

	PXOR X11, X1
	PXOR X12, X2
	PXOR X13, X3
	PXOR X14, X4

	ADDQ $64, SI
	SUBQ $64, CX
	CMPQ CX, $64
	JGE  loop64

	// Fold the four lanes into X1.
remain64:
	MOVOU 96(AX), X0             // k16

	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1

	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X3, X1

	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X4, X1
	JMP       more16

	// 16 to 63 bytes: one xmm.
short:
	MOVL  crc+0(FP), X0
	MOVOU (SI), X1
	PXOR  X0, X1
	ADDQ  $16, SI
	SUBQ  $16, CX
	MOVOU 96(AX), X0             // k16
	JMP   more16

wide:
	MOVL  crc+0(FP), DX
	VMOVD DX, X0                 // zeroes the rest of Z0
	CMPQ  CX, $256
	JB    wide64

	VMOVDQU64 (SI), Z1
	VMOVDQU64 64(SI), Z2
	VMOVDQU64 128(SI), Z3
	VMOVDQU64 192(SI), Z4
	VPXORQ    Z0, Z1, Z1
	ADDQ      $256, SI
	SUBQ      $256, CX
	CMPQ      CX, $256
	JB        fold4

	VBROADCASTI32X4 0(AX), Z0    // k256

loop256:
	VPCLMULQDQ $0x00, Z0, Z1, Z5
	VPCLMULQDQ $0x11, Z0, Z1, Z1
	VPCLMULQDQ $0x00, Z0, Z2, Z6
	VPCLMULQDQ $0x11, Z0, Z2, Z2
	VPCLMULQDQ $0x00, Z0, Z3, Z7
	VPCLMULQDQ $0x11, Z0, Z3, Z3
	VPCLMULQDQ $0x00, Z0, Z4, Z8
	VPCLMULQDQ $0x11, Z0, Z4, Z4
	VPTERNLOGD $0x96, (SI), Z5, Z1
	VPTERNLOGD $0x96, 64(SI), Z6, Z2
	VPTERNLOGD $0x96, 128(SI), Z7, Z3
	VPTERNLOGD $0x96, 192(SI), Z8, Z4
	ADDQ       $256, SI
	SUBQ       $256, CX
	CMPQ       CX, $256
	JAE        loop256

	// Fold Z1, Z2 and Z3 forward onto Z4, all at once.
fold4:
	VBROADCASTI32X4 16(AX), Z0   // k192
	VPCLMULQDQ      $0x00, Z0, Z1, Z5
	VPCLMULQDQ      $0x11, Z0, Z1, Z1
	VBROADCASTI32X4 32(AX), Z0   // k128
	VPCLMULQDQ      $0x00, Z0, Z2, Z6
	VPCLMULQDQ      $0x11, Z0, Z2, Z2
	VBROADCASTI32X4 48(AX), Z0   // k64
	VPCLMULQDQ      $0x00, Z0, Z3, Z7
	VPCLMULQDQ      $0x11, Z0, Z3, Z3
	VPTERNLOGD      $0x96, Z5, Z4, Z1
	VPTERNLOGD      $0x96, Z6, Z2, Z1
	VPTERNLOGD      $0x96, Z7, Z3, Z1
	JMP             more64

	// 64 to 255 bytes: one zmm.
wide64:
	VMOVDQU64       (SI), Z1
	VPXORQ          Z0, Z1, Z1
	ADDQ            $64, SI
	SUBQ            $64, CX
	VBROADCASTI32X4 48(AX), Z0   // k64

more64:
	CMPQ CX, $64
	JB   fold1

loop64w:
	VPCLMULQDQ $0x00, Z0, Z1, Z5
	VPCLMULQDQ $0x11, Z0, Z1, Z1
	VPTERNLOGD $0x96, (SI), Z5, Z1
	ADDQ       $64, SI
	SUBQ       $64, CX
	CMPQ       CX, $64
	JAE        loop64w

	// Fold lanes 0, 1 and 2 of Z1 forward onto lane 3, all at once:
	// k48, k32, k16 and a zero pair make one vector.
fold1:
	VMOVDQU64     64(AX), Z0
	VPCLMULQDQ    $0x00, Z0, Z1, Z5
	VPCLMULQDQ    $0x11, Z0, Z1, Z6
	VEXTRACTI32X4 $3, Z1, X7
	VPTERNLOGD    $0x96, Z5, Z6, Z7
	VEXTRACTI64X4 $1, Z7, Y5
	VPXOR         Y5, Y7, Y7
	VEXTRACTI128  $1, Y7, X5
	VPXOR         X5, X7, X1
	VZEROUPPER
	MOVOU         96(AX), X0     // k16

	// Take in the 16-byte blocks left.
more16:
	CMPQ CX, $16
	JB   tail

remain16:
	MOVOU     (SI), X10
	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X10, X1
	SUBQ      $16, CX
	ADDQ      $16, SI
	CMPQ      CX, $16
	JGE       remain16

	// Take in the last CX bytes, CX < 16: the remainder X1 and those
	// bytes are the same stream as a block of X1's first CX bytes after
	// 16-CX zero bytes (X4), which folds by 16 onto a block of X1's last
	// 16-CX bytes followed by the CX bytes, the top CX bytes of the
	// input's last 16 (X2).
tail:
	TESTQ    CX, CX
	JZ       finish
	MOVOU    -16(SI)(CX*1), X2
	LEAQ     tailShuf<>(SB), BX
	MOVOU    (BX)(CX*1), X3
	MOVOA    X0, X6
	MOVOU    16(BX)(CX*1), X0
	MOVOA    X1, X4
	PSHUFB   X3, X4
	PSHUFB   X0, X1
	PBLENDVB X0, X2, X1
	MOVOA    X6, X0
	MOVOA    X4, X5
	PCLMULQDQ $0, X0, X4
	PCLMULQDQ $0x11, X0, X5
	PXOR     X4, X1
	PXOR     X5, X1

	// Reduce the 128-bit remainder to 32 bits.
finish:
	PCMPEQB   X3, X3
	PCLMULQDQ $1, X1, X0
	PSRLDQ    $8, X1
	PXOR      X0, X1

	MOVOA X1, X2
	MOVQ  128(AX), X0            // r5

	// A 32-bit mask; the upper half does not matter.
	PSRLQ $32, X3

	PSRLDQ    $4, X2
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1

	MOVOU 144(AX), X0            // rupoly

	MOVOA     X1, X2
	PAND      X3, X1
	PCLMULQDQ $0x10, X0, X1
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1

	PEXTRD $1, X1, AX
	MOVL   AX, ret+40(FP)
	RET
