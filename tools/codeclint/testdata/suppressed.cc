// codeclint fixture: hazards.cc with every finding waived inline. The
// scan must exit clean, and under --check-waivers every waiver below
// must suppress a real finding (none are stale).
#include <cstdint>
#include <vector>

using Bytes = std::vector<unsigned char>;

struct Voucher {
  uint64_t amount = 0;
  uint64_t serial = 0;
  // codeclint:allow(codec-missing-field,digest-missing-field): fixture
  uint64_t expiry = 0;
  // codeclint:allow(encode-decode-drift): fixture
  uint64_t memo = 0;
  // codeclint:allow(unsigned-mutable-field): fixture
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

// codeclint:allow(encode-decode-drift): fixture reads serial first
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

uint64_t ExecuteTransaction(const Voucher& v) {
  if (v.flags != 0) return 0;
  return v.SigningDigest();
}

struct Knobs {
  int retries = 0;
  // codeclint:allow(codec-missing-field): fixture
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
