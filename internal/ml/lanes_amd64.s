#include "textflag.h"

// laneIota holds the int64s 0…15, the lane numbers of a sixteen-lane block.
DATA laneIota<>+0(SB)/8, $0
DATA laneIota<>+8(SB)/8, $1
DATA laneIota<>+16(SB)/8, $2
DATA laneIota<>+24(SB)/8, $3
DATA laneIota<>+32(SB)/8, $4
DATA laneIota<>+40(SB)/8, $5
DATA laneIota<>+48(SB)/8, $6
DATA laneIota<>+56(SB)/8, $7
DATA laneIota<>+64(SB)/8, $8
DATA laneIota<>+72(SB)/8, $9
DATA laneIota<>+80(SB)/8, $10
DATA laneIota<>+88(SB)/8, $11
DATA laneIota<>+96(SB)/8, $12
DATA laneIota<>+104(SB)/8, $13
DATA laneIota<>+112(SB)/8, $14
DATA laneIota<>+120(SB)/8, $15
GLOBL laneIota<>(SB), RODATA|NOPTR, $128

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemvTAVX2(acc, x, m []float64, stride int)
//
// Each block of up to sixteen lanes keeps its sums in Y0-Y3 across one pass
// over x: per x[i], a multiply (VMULPD) then an add (VADDPD) per group, so
// every lane performs gemvTGo's operations in gemvTGo's order.
TEXT ·gemvTAVX2(SB), NOSPLIT, $0-80
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), R8
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), BX
	LEAQ (SI)(BX*8), BX    // end of x
	MOVQ m_base+48(FP), DX
	MOVQ stride+72(FP), R10
	SHLQ $3, R10           // row stride in bytes
	XORQ R11, R11          // first lane of the block

block:
	MOVQ R8, AX
	SUBQ R11, AX           // lanes left
	JLE  done
	CMPQ AX, $16
	JLE  masks
	MOVQ $16, AX

masks:
	// Y9-Y12: group q's mask, lane 4q+k set when 4q+k < AX.
	MOVQ         AX, X13
	VPBROADCASTQ X13, Y13
	VPCMPGTQ     laneIota<>+0(SB), Y13, Y9
	VPCMPGTQ     laneIota<>+32(SB), Y13, Y10
	VPCMPGTQ     laneIota<>+64(SB), Y13, Y11
	VPCMPGTQ     laneIota<>+96(SB), Y13, Y12

	// R12-R14: the byte offsets of groups 1-3 in a row, or 0 for a group
	// with no lane, which then re-reads group 0's columns.
	XORQ    R12, R12
	XORQ    R13, R13
	XORQ    R14, R14
	MOVQ    $32, R9
	CMPQ    AX, $4
	CMOVQGT R9, R12
	MOVQ    $64, R9
	CMPQ    AX, $8
	CMOVQGT R9, R13
	MOVQ    $96, R9
	CMPQ    AX, $12
	CMOVQGT R9, R14

	LEAQ       (DI)(R11*8), AX // the block's sums
	VMASKMOVPD (AX), Y9, Y0
	VMASKMOVPD 32(AX), Y10, Y1
	VMASKMOVPD 64(AX), Y11, Y2
	VMASKMOVPD 96(AX), Y12, Y3
	LEAQ       (DX)(R11*8), CX // row 0 of m at the block's first lane
	MOVQ       SI, R9
	CMPQ       R9, BX
	JAE        store

row:
	VBROADCASTSD (R9), Y8
	VMULPD       (CX), Y8, Y4
	VMULPD       (CX)(R12*1), Y8, Y5
	VMULPD       (CX)(R13*1), Y8, Y6
	VMULPD       (CX)(R14*1), Y8, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	ADDQ         $8, R9
	ADDQ         R10, CX
	CMPQ         R9, BX
	JB           row

store:
	VMASKMOVPD Y0, Y9, (AX)
	VMASKMOVPD Y1, Y10, 32(AX)
	VMASKMOVPD Y2, Y11, 64(AX)
	VMASKMOVPD Y3, Y12, 96(AX)
	ADDQ       $16, R11
	JMP        block

done:
	VZEROUPPER
	RET

// func gemvTAVX512(acc, x, m []float64, stride int)
//
// Each block of up to thirty-two lanes keeps its sums in Z0-Z3 across one
// pass over x: per x[i], a multiply (VMULPD) then an add (VADDPD) per group,
// so every lane performs gemvTGo's operations in gemvTGo's order. K1-K4 hold
// the groups' lanes; every load and store of acc and m goes under them, and
// EVEX fault suppression keeps a masked-off lane from being read at all.
TEXT ·gemvTAVX512(SB), NOSPLIT, $0-80
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), R8
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), BX
	LEAQ (SI)(BX*8), BX    // end of x
	MOVQ m_base+48(FP), DX
	MOVQ stride+72(FP), R10
	SHLQ $3, R10           // row stride in bytes
	XORQ R11, R11          // first lane of the block

block:
	MOVQ R8, CX
	SUBQ R11, CX           // lanes left
	JLE  done

	// R12: bit l set for each lane l of the block, all 32 for a full one.
	MOVL $-1, R12
	CMPQ CX, $32
	JAE  masks
	MOVL $1, R12
	SHLL CX, R12
	DECL R12

masks:
	// K1-K4: group q's eight lanes, bits 8q to 8q+7 of R12.
	KMOVW R12, K1
	SHRL  $8, R12
	KMOVW R12, K2
	SHRL  $8, R12
	KMOVW R12, K3
	SHRL  $8, R12
	KMOVW R12, K4

	LEAQ      (DI)(R11*8), AX // the block's sums
	VMOVUPD.Z (AX), K1, Z0
	VMOVUPD.Z 64(AX), K2, Z1
	VMOVUPD.Z 128(AX), K3, Z2
	VMOVUPD.Z 192(AX), K4, Z3
	LEAQ      (DX)(R11*8), CX // row 0 of m at the block's first lane
	MOVQ      SI, R9
	CMPQ      R9, BX
	JAE       store

row:
	VBROADCASTSD (R9), Z8
	VMULPD.Z     (CX), Z8, K1, Z4
	VMULPD.Z     64(CX), Z8, K2, Z5
	VMULPD.Z     128(CX), Z8, K3, Z6
	VMULPD.Z     192(CX), Z8, K4, Z7
	VADDPD       Z4, Z0, Z0
	VADDPD       Z5, Z1, Z1
	VADDPD       Z6, Z2, Z2
	VADDPD       Z7, Z3, Z3
	ADDQ         $8, R9
	ADDQ         R10, CX
	CMPQ         R9, BX
	JB           row

store:
	VMOVUPD Z0, K1, (AX)
	VMOVUPD Z1, K2, 64(AX)
	VMOVUPD Z2, K3, 128(AX)
	VMOVUPD Z3, K4, 192(AX)
	ADDQ    $32, R11
	JMP     block

done:
	VZEROUPPER
	RET
