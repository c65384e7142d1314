// Fuzzes the binary snapshot loader — the one surface that parses
// attacker-controllable bytes from disk (a shared artifact directory is
// only as trustworthy as its slowest rsync). ParseSnapshotFull must fail
// closed on anything malformed: no crash, no overflow, no partial table.
// Every input that does parse must re-encode to itself bit for bit: the
// decoder rejects every non-canonical encoding (nonzero padding, flags,
// reserved words, or size slack), so the input is the encoder's fixed
// point.

#include <string>
#include <string_view>

#include "store/snapshot.h"

#include "fuzz_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view bytes(reinterpret_cast<const char*>(data), size);

  auto parsed = wsd::ParseSnapshotFull(bytes);
  if (!parsed.ok()) return 0;  // rejected cleanly — that is the contract

  auto reencoded = wsd::SerializeSnapshotAligned(parsed->result, parsed->meta);
  WSD_FUZZ_ASSERT(reencoded.ok());
  WSD_FUZZ_ASSERT(*reencoded == bytes);
  return 0;
}
