"""Merge two clients whose curvature disagrees about which coordinate matters.

Plain averaging splits the difference everywhere. The curvature-weighted
merge keeps each client's opinion where that client is confident and falls
back to the mean where nobody is.
"""

import numpy as np

from oneshot_fl.aggregate import ClientUpdate, ServerConfig, fedavg, fedfisher_solve
from oneshot_fl.fisher import DiagFisher

# Client A is sure about coordinate 0, indifferent about the rest.
# Client B is sure about coordinate 1.
client_a = ClientUpdate(np.array([2.0, 7.0, 1.0]), DiagFisher(np.array([4.0, 0.0, 0.0])))
client_b = ClientUpdate(np.array([-3.0, 5.0, 3.0]), DiagFisher(np.array([0.0, 2.0, 0.0])))

mean = fedavg([client_a, client_b])
result = fedfisher_solve([client_a, client_b], ServerConfig(optimizer="gd", stop_tol=1e-14))

print("client A weights:", client_a.weights, "confidence:", client_a.fisher.diag)
print("client B weights:", client_b.weights, "confidence:", client_b.fisher.diag)
print()
print("plain average:     ", mean)
print("curvature-weighted:", result.weights.round(12))
print()
print("coordinate 0 follows A (2.0), coordinate 1 follows B (5.0),")
print("coordinate 2 has no curvature anywhere and stays at the mean (2.0).")
print(f"solver: {result.iterations} iterations, converged={result.converged}")
