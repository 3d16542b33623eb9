#include "textflag.h"

// func hasCLMUL() bool
TEXT ·hasCLMUL(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x00080002, CX        // PCLMULQDQ (bit 1), SSE4.1 (bit 19)
	CMPL  CX, $0x00080002
	SETEQ ret+0(FP)
	RET

// func foldCLMUL(crc uint32, p []byte, k *foldConsts) uint32
//
// hash/crc32's ieeeCLMUL (crc32_amd64.s) on the pure reflected state,
// with its constant pairs read from k: r2r1 at 0, r4r3 at 16, r5 at 32
// and rupoly at 48.
TEXT ·foldCLMUL(SB), NOSPLIT, $0-44
	MOVL  crc+0(FP), X0
	MOVQ  p_base+8(FP), SI
	MOVQ  p_len+16(FP), CX
	MOVQ  k+32(FP), AX

	MOVOU (SI), X1
	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	PXOR  X0, X1
	ADDQ  $64, SI
	SUBQ  $64, CX
	CMPQ  CX, $64                // fewer than 64 bytes left
	JB    remain64

	MOVOU 0(AX), X0              // r2r1

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
	MOVOU 16(AX), X0             // r4r3

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

	CMPQ CX, $16
	JB   finish

	// Take in the 16-byte blocks left.
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

	// Reduce the 128-bit remainder to 32 bits.
finish:
	PCMPEQB   X3, X3
	PCLMULQDQ $1, X1, X0
	PSRLDQ    $8, X1
	PXOR      X0, X1

	MOVOA X1, X2
	MOVQ  32(AX), X0             // r5

	// A 32-bit mask; the upper half does not matter.
	PSRLQ $32, X3

	PSRLDQ    $4, X2
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1

	MOVOU 48(AX), X0             // rupoly

	MOVOA     X1, X2
	PAND      X3, X1
	PCLMULQDQ $0x10, X0, X1
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1

	PEXTRD $1, X1, AX
	MOVL   AX, ret+40(FP)
	RET
