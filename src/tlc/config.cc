#include "tlc/config.hh"

namespace tlsim
{
namespace tlc
{

TlcConfig
baseTlc()
{
    TlcConfig cfg;
    cfg.name = "TLC";
    cfg.banks = 32;
    cfg.banksPerBlock = 1;
    cfg.bankBytes = 512 * 1024;
    // Two 8-byte unidirectional links per bank pair.
    cfg.linesPerPair = 128;
    cfg.downBits = 64;
    cfg.upBits = 64;
    return cfg;
}

TlcConfig
tlcOpt1000()
{
    TlcConfig cfg;
    cfg.name = "TLCopt1000";
    cfg.banks = 16;
    cfg.banksPerBlock = 2;
    cfg.bankBytes = 1024 * 1024;
    cfg.linesPerPair = 126;
    cfg.downBits = 30;
    cfg.upBits = 96;
    return cfg;
}

TlcConfig
tlcOpt500()
{
    TlcConfig cfg;
    cfg.name = "TLCopt500";
    cfg.banks = 16;
    cfg.banksPerBlock = 4;
    cfg.bankBytes = 1024 * 1024;
    cfg.linesPerPair = 64;
    cfg.downBits = 24;
    cfg.upBits = 40;
    return cfg;
}

TlcConfig
tlcOpt350()
{
    TlcConfig cfg;
    cfg.name = "TLCopt350";
    cfg.banks = 16;
    cfg.banksPerBlock = 8;
    cfg.bankBytes = 1024 * 1024;
    cfg.linesPerPair = 44;
    cfg.downBits = 20;
    cfg.upBits = 24;
    return cfg;
}

} // namespace tlc
} // namespace tlsim
