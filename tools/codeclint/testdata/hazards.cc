// codeclint fixture: every coverage rule fires at least once.
// Expected findings:
//   codec-missing-field     Voucher.expiry (never encoded),
//                           Knobs.window (embedded via Bundle.knobs)
//   encode-decode-drift     Voucher.memo (encoded, never decoded) and
//                           the order finding at DecodeVoucher
//                           (decode reads serial before amount)
//   digest-missing-field    Voucher.expiry (absent from Id and
//                           SigningDigest alike)
//   unsigned-mutable-field  Voucher.flags (read by the execution root,
//                           absent from the signing closure)
#include <cstdint>
#include <vector>

using Bytes = std::vector<unsigned char>;

struct Voucher {
  uint64_t amount = 0;
  uint64_t serial = 0;
  uint64_t expiry = 0;
  uint64_t memo = 0;
  uint64_t flags = 0;

  Bytes Encode() const;
  uint64_t Id() const;
  uint64_t SigningDigest() const;
};

Bytes Voucher::Encode() const {
  Bytes out;
  out.push_back(static_cast<unsigned char>(amount));
  out.push_back(static_cast<unsigned char>(serial));
  out.push_back(static_cast<unsigned char>(memo));
  out.push_back(static_cast<unsigned char>(flags));
  return out;
}

Voucher DecodeVoucher(const Bytes& data) {
  Voucher v;
  v.serial = data.size() > 1 ? data[1] : 0;
  v.amount = data.size() > 0 ? data[0] : 0;
  v.flags = data.size() > 3 ? data[3] : 0;
  return v;
}

uint64_t Voucher::Id() const {
  const Bytes bytes = Encode();
  uint64_t acc = 0;
  for (unsigned char b : bytes) acc = acc * 31 + b;
  return acc;
}

uint64_t Voucher::SigningDigest() const {
  return amount * 1000003 + serial;
}

// Consensus execution root: reads the unsigned `flags` member.
uint64_t ExecuteTransaction(const Voucher& v) {
  if (v.flags != 0) return 0;
  return v.SigningDigest();
}

// Nested expansion: Knobs has no codec of its own, so its members join
// Bundle's coverage obligation — and `window` is never written.
struct Knobs {
  int retries = 0;
  int window = 0;
};

struct Bundle {
  Knobs knobs;
  uint64_t count = 0;

  Bytes Encode() const;
};

Bytes Bundle::Encode() const {
  Bytes out;
  out.push_back(static_cast<unsigned char>(knobs.retries));
  out.push_back(static_cast<unsigned char>(count));
  return out;
}
