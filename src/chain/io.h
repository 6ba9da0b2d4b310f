#pragma once

#include <string>

#include "chain/ledger.h"
#include "util/status.h"

/// \file io.h
/// \brief CSV export/import of a ledger — the "release the dataset"
/// side of the paper. The format is line-oriented and re-validated on
/// import: a ledger round-trips through disk into an identical,
/// conservation-checked ledger.
///
/// Format (v2):
///   # ba-ledger v2,<block_subsidy>,<num_addresses>
///   B,<height>,<timestamp>
///   C,<timestamp>,<addr>:<value>[|<addr>:<value>...]       (coinbase)
///   T,<timestamp>,<txid>:<vout>[|...],<addr>:<value>[|...]  (spend)
///   # crc32,<8-hex>                                        (trailer)
/// Addresses are dense ids; every id below the header's address count
/// exists. Files are written atomically (tmp + rename); the trailing
/// CRC32 covers every byte above it and is verified on import
/// (util::SealedLineReader), so a truncated or bit-flipped release fails
/// with a line-numbered error naming the file instead of loading
/// silently.

namespace ba::chain {

/// \brief Writes the full chain to `path`. Fails on I/O errors.
Status ExportLedgerCsv(const Ledger& ledger, const std::string& path);

/// \brief Reads a chain written by ExportLedgerCsv, replaying every
/// transaction through full validation. Returns the reconstructed
/// ledger or a descriptive error (malformed line, validation failure).
Result<Ledger> ImportLedgerCsv(const std::string& path);

}  // namespace ba::chain
