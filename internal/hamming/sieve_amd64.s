#include "textflag.h"

// func hasAVX512() bool
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JCS  no                // no leaf 7
	MOVL $1, AX
	CPUID
	ANDL $0x08800000, CX   // OSXSAVE (bit 27), POPCNT (bit 23)
	CMPL CX, $0x08800000
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX           // AVX512F
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX         // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	CMPL AX, $0xe6
	JNE  no
	MOVB $1, ret+0(FP)

no:
	RET

// iota<> holds a block's first indexes, 0 to 15.
DATA iota<>+0(SB)/4, $0
DATA iota<>+4(SB)/4, $1
DATA iota<>+8(SB)/4, $2
DATA iota<>+12(SB)/4, $3
DATA iota<>+16(SB)/4, $4
DATA iota<>+20(SB)/4, $5
DATA iota<>+24(SB)/4, $6
DATA iota<>+28(SB)/4, $7
DATA iota<>+32(SB)/4, $8
DATA iota<>+36(SB)/4, $9
DATA iota<>+40(SB)/4, $10
DATA iota<>+44(SB)/4, $11
DATA iota<>+48(SB)/4, $12
DATA iota<>+52(SB)/4, $13
DATA iota<>+56(SB)/4, $14
DATA iota<>+60(SB)/4, $15
GLOBL iota<>(SB), RODATA|NOPTR, $64

// func sieveAVX512(bits []uint64, keys []uint32, x, s2 uint32, out []int32) int
TEXT ·sieveAVX512(SB), NOSPLIT, $0-88
	MOVQ bits_base+0(FP), SI
	MOVQ bits_len+8(FP), AX
	MOVQ keys_base+24(FP), DI
	MOVQ keys_len+32(FP), BX
	MOVQ out_base+56(FP), R8
	SHLQ $1, AX
	DECQ AX                           // 2*len(bits)-1: the 32-bit word mask
	VPBROADCASTD AX, Z2
	MOVL x+48(FP), AX
	VPBROADCASTD AX, Z1
	MOVL s2+52(FP), AX
	VPBROADCASTD AX, Z10
	MOVL $1, AX
	VPBROADCASTD AX, Z3
	MOVL $16, AX
	VPBROADCASTD AX, Z4
	VMOVDQU32 iota<>(SB), Z5          // the block's indexes i to i+15
	MOVQ BX, DX
	ANDQ $-16, DX                     // the end of the row's whole blocks
	XORQ R9, R9                       // i
	XORQ R10, R10                     // k
	CMPQ R9, DX
	JEQ  tail

loop:
	VPXORD (DI)(R9*4), Z1, Z6         // f = keys[i]^x
	VPSRLD $5, Z6, Z7
	VPANDD Z2, Z7, Z7                 // the 32-bit word holding both bits
	KXNORW K0, K0, K1
	VPGATHERDD (SI)(Z7*4), K1, Z8
	VPSRLVD Z10, Z6, Z9
	VPRORVD Z9, Z8, Z9                // bit f>>s2 & 31 to bit 0
	VPRORVD Z6, Z8, Z8                // bit f&31 to bit 0
	VPANDD Z9, Z8, Z8
	VPTESTMD Z3, Z8, K2
	VPCOMPRESSD Z5, K2, Z9            // the passing indexes, packed low
	VMOVDQU32 Z9, (R8)(R10*4)
	KMOVW K2, AX
	POPCNTL AX, AX
	ADDQ AX, R10
	VPADDD Z4, Z5, Z5
	ADDQ $16, R9
	CMPQ R9, DX
	JLT  loop

tail:
	MOVQ BX, CX
	SUBQ R9, CX                       // the keys left, 0 to 15
	JEQ  done
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1                      // one mask bit per key left
	VMOVDQU32.Z (DI)(R9*4), K1, Z6    // masked lanes read nothing
	VPXORD Z1, Z6, Z6
	VPSRLD $5, Z6, Z7
	VPANDD Z2, Z7, Z7
	KMOVW K1, K3                      // the gather clears its mask
	VPGATHERDD (SI)(Z7*4), K3, Z8
	VPSRLVD Z10, Z6, Z9
	VPRORVD Z9, Z8, Z9
	VPRORVD Z6, Z8, Z8
	VPANDD Z9, Z8, Z8
	VPTESTMD Z3, Z8, K1, K2           // only the keys left can pass
	VPCOMPRESSD Z5, K2, (R8)(R10*4)   // writes the passing indexes alone
	KMOVW K2, AX
	POPCNTL AX, AX
	ADDQ AX, R10

done:
	VZEROUPPER
	MOVQ R10, ret+80(FP)
	RET
