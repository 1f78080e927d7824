/**
 * @file
 * The mini-ISA executed by Raw tiles: a MIPS-like single-issue
 * register machine extended with the static-network registers the
 * real Raw exposes ($csti / $csto). Reading regCsti pops the tile's
 * network input FIFO (blocking when empty); writing regCsto sends a
 * word along the tile's configured static route. Raw's peak modes —
 * "operating on data directly from the networks" — are therefore
 * real code paths: an instruction can use the network as both source
 * and destination.
 */

#ifndef TRIARCH_RAW_ISA_HH
#define TRIARCH_RAW_ISA_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace triarch::raw
{

/** Opcodes. Arithmetic is register-register; immediates are 32-bit. */
enum class Op : std::uint8_t
{
    Nop,
    Add,        //!< rd = rs + rt
    Addi,       //!< rd = rs + imm
    Sub,        //!< rd = rs - rt
    Mul,        //!< rd = rs * rt (integer)
    Sll,        //!< rd = rs << imm
    Sra,        //!< rd = rs >> imm (arithmetic)
    Srl,        //!< rd = rs >> imm (logical)
    And,        //!< rd = rs & rt
    Or,         //!< rd = rs | rt
    Xor,        //!< rd = rs ^ rt
    Li,         //!< rd = imm
    FAdd,       //!< rd = rs + rt (float bits)
    FSub,
    FMul,
    Lw,         //!< rd = mem[rs + imm]
    Sw,         //!< mem[rs + imm] = rt
    Beq,        //!< if (rs == rt) pc = imm
    Bne,
    Blt,        //!< signed rs < rt
    Bge,
    Jump,       //!< pc = imm
    Halt,
    /**
     * Dynamic-network send: a packet carrying the word in rt is
     * routed to the tile whose id is in rs (Section 2.3: dynamic
     * messages are packets with a header, so they cost more than
     * static-network words).
     */
    Dsend,
    /** Dynamic-network receive into rd (blocking). */
    Drecv,
};

/** One decoded instruction. */
struct Instr
{
    Op op = Op::Nop;
    std::uint8_t rd = 0;
    std::uint8_t rs = 0;
    std::uint8_t rt = 0;
    std::int32_t imm = 0;
};

/** General registers 0..23 (r0 hardwired to zero). */
constexpr unsigned numGeneralRegs = 24;
/** Reading this register pops the network input FIFO (blocking). */
constexpr unsigned regCsti = 30;
/** Writing this register sends on the tile's static route. */
constexpr unsigned regCsto = 31;
/** Total architectural register indices. */
constexpr unsigned numRegs = 32;

/** True if @p r is readable general state (not csto). */
constexpr bool
isReadableReg(unsigned r)
{
    return r < numGeneralRegs || r == regCsti;
}

/** Human-readable opcode name (for traces and tests). */
const char *opName(Op op);

/** Disassemble one instruction. */
std::string disassemble(const Instr &instr);

} // namespace triarch::raw

#endif // TRIARCH_RAW_ISA_HH
