"""Salt-keyed pseudonyms: equal people hash equal, different salts share
nothing.

Both stations apply SHA-512, cut to its first 32 bytes, over
domain-separated preimages with one shared secret salt. The analysis side
sees only the digests; without the salt it cannot re-derive them from the
small space of real-world identifiers.
"""

from phtlink import canonicalize, generate_salt, pseudonymize
from phtlink.pseudonym import Salt

alice = canonicalize(
    {"zip_code": "6211AB", "house_number": "12", "gender": "F",
     "date_of_birth": "1960-03-15"}
)

salt = generate_salt(run_id="run-2026-001")
print("salt (kept from the analysis side):", salt.bytes.hex()[:32], "...")

at_station_one = pseudonymize(alice, salt)
at_station_two = pseudonymize(alice, Salt(salt.bytes, salt.run_id))
print("\nstations agree on the composite digest:",
      at_station_one.composite == at_station_two.composite)
print("composite:", at_station_one.composite[:48], "...")
for name, digest in zip(("zip", "house", "gender", "dob"), at_station_one.per_field):
    print(f"  {name:6s} {digest[:48]} ...")

# a different run's salt produces unrelated digests for the same person
other_salt = generate_salt(run_id="run-2026-002")
other = pseudonymize(alice, other_salt)
shared = {at_station_one.composite, *at_station_one.per_field} & {
    other.composite, *other.per_field
}
print("\ndigests shared between the two salts:", len(shared))

# domain separation: even identical field strings hash differently per field
bob = canonicalize(
    {"zip_code": "6211AB", "house_number": "12", "gender": "M",
     "date_of_birth": "1960-03-15"}
)
vec = pseudonymize(bob, salt)
print("per-field digests pairwise distinct:", len(set(vec.per_field)) == 4)
