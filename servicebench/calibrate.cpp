// Crypto unit costs for the workload's own deployment, timed through the
// public src/crypto calls the protocols make.  Each operation runs until
// it has used kBudget of wall time (and at least kMinOps times), so the
// honest-size operations get fewer repetitions than the toy-size ones.
#include <functional>

#include "crypto/dealer.hpp"
#include "crypto/sha256.hpp"
#include "service_bench.hpp"

namespace sintra::servicebench {

namespace {

constexpr std::uint64_t kBudget = 60'000'000;  // ns per operation
constexpr int kMinOps = 4;

/// µs per call of `op(i)`, i counting calls.
double time_op(const std::function<void(int)>& op) {
  op(0);  // warm: lazy tables and precomputed bases
  int ops = 0;
  const std::uint64_t start = now_ns();
  std::uint64_t elapsed = 0;
  while (ops < kMinOps || elapsed < kBudget) {
    op(ops + 1);
    ++ops;
    elapsed = now_ns() - start;
  }
  return static_cast<double>(elapsed) / 1000.0 / ops;
}

Bytes numbered(std::string_view prefix, int i) {
  return bytes_of(std::string(prefix) + std::to_string(i));
}

}  // namespace

std::map<std::string, double> calibrate_crypto(const adversary::Deployment& deployment,
                                               std::uint64_t seed) {
  const crypto::PublicKeys& pk = deployment.keys->public_keys();
  const crypto::PartyKeyShare& p0 = deployment.keys->share(0);
  const crypto::PartyKeyShare& p1 = deployment.keys->share(1);
  Rng rng(seed ^ 0xca1bull);
  std::map<std::string, double> costs;
  volatile bool sink = false;

  // Threshold RSA on the reply key: what replicas sign and clients check.
  const Bytes statement = rng.bytes(120);
  std::vector<crypto::SigShare> shares = p0.reply_sig.sign(pk.reply_sig, statement, rng);
  for (auto& share : p1.reply_sig.sign(pk.reply_sig, statement, rng)) shares.push_back(share);
  costs["crypto.tsig_sign_share_us"] = time_op([&](int) {
    sink = !p0.reply_sig.sign(pk.reply_sig, statement, rng).empty();
  });
  costs["crypto.tsig_verify_share_us"] =
      time_op([&](int) { sink = pk.reply_sig.verify_share(statement, shares.front()); });
  const std::optional<crypto::BigInt> signature = pk.reply_sig.combine(statement, shares);
  costs["crypto.tsig_combine_us"] =
      time_op([&](int) { sink = pk.reply_sig.combine(statement, shares).has_value(); });
  costs["crypto.rsa_verify_us"] = time_op([&](int) {
    sink = signature.has_value() && pk.reply_sig.verify(statement, *signature);
  });

  // The coin, once per ABBA round; a fresh name each call, as in ABBA.
  std::vector<crypto::CoinShare> coin = p0.coin.share(pk.coin, numbered("coin/", 0), rng);
  costs["crypto.coin_share_us"] = time_op([&](int i) {
    sink = !p0.coin.share(pk.coin, numbered("coin/", i), rng).empty();
  });
  costs["crypto.coin_verify_share_us"] = time_op([&](int) {
    sink = pk.coin.verify_share(numbered("coin/", 0), coin.front());
  });

  // TDH2: client encryption and the replicas' decryption shares.
  const Bytes request = rng.bytes(96);
  const Bytes label = bytes_of("notary");
  const crypto::Tdh2Ciphertext ciphertext = pk.encryption.encrypt(request, label, rng);
  const std::vector<crypto::Tdh2DecShare> dec =
      p0.decryption.decrypt_shares(pk.encryption, ciphertext, rng);
  costs["crypto.tdh2_encrypt_us"] = time_op([&](int) {
    sink = !pk.encryption.encrypt(request, label, rng).data.empty();
  });
  costs["crypto.tdh2_dec_share_us"] = time_op([&](int) {
    sink = !p0.decryption.decrypt_shares(pk.encryption, ciphertext, rng).empty();
  });
  costs["crypto.tdh2_verify_share_us"] =
      time_op([&](int) { sink = pk.encryption.verify_share(ciphertext, dec.front()); });

  // Link MAC over a 4 KiB frame.
  const Bytes key = rng.bytes(32);
  const Bytes frame = rng.bytes(4096);
  costs["crypto.hmac_4k_us"] =
      time_op([&](int) { sink = crypto::hmac_sha256(key, frame)[0] != 0; });
  (void)sink;
  return costs;
}

}  // namespace sintra::servicebench
