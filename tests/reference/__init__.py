"""Reference code that only the tests run: exact rational elimination
(linalg) and the independent cross-checks built on it (oracle).  The
package diffalg ships what a command runs and imports nothing from here.
"""
